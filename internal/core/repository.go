package core

import (
	"fmt"
	"sync"
)

// TransformFunc converts a payload of one contract type into another.
// Transformation schemas are stored in the service repository and are
// the raw material from which adaptor services are generated
// (Section 3.1: "Service repositories handle service schemas and
// transformational schemas").
type TransformFunc func(any) (any, error)

type transformKey struct {
	from, to string
}

// Repository is the service repository of Section 3.1. It stores
// service schemas (contracts, keyed by interface name) and
// transformational schemas (payload conversions, keyed by type pair).
// The adaptor generator consults it when bridging services whose
// interfaces differ.
type Repository struct {
	mu         sync.RWMutex
	contracts  map[string]*Contract
	transforms map[transformKey]TransformFunc
}

// NewRepository creates an empty repository. Identity transformations
// (T -> T) are implicit and need not be registered.
func NewRepository() *Repository {
	return &Repository{
		contracts:  make(map[string]*Contract),
		transforms: make(map[transformKey]TransformFunc),
	}
}

// PutContract stores (or replaces) the schema for an interface.
func (r *Repository) PutContract(c *Contract) error {
	if c.Interface == "" {
		return fmt.Errorf("core: contract has empty interface name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.contracts[c.Interface] = c.Clone()
	return nil
}

// GetContract returns the stored schema for an interface.
func (r *Repository) GetContract(iface string) (*Contract, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.contracts[iface]
	if !ok {
		return nil, fmt.Errorf("%w: contract %s", ErrNotFound, iface)
	}
	return c.Clone(), nil
}

// PutTransform registers a transformation schema converting payloads of
// contract type from into type to.
func (r *Repository) PutTransform(from, to string, f TransformFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.transforms[transformKey{from, to}] = f
}

// Transform returns a conversion from one contract type to another.
// The identity conversion is always available.
func (r *Repository) Transform(from, to string) (TransformFunc, bool) {
	if from == to {
		return func(v any) (any, error) { return v, nil }, true
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.transforms[transformKey{from, to}]
	return f, ok
}
