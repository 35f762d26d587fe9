package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Registry errors.
var (
	// ErrNotFound is returned when no registration matches a lookup.
	ErrNotFound = errors.New("core: service not found")
	// ErrDuplicate is returned when a service name is registered twice.
	ErrDuplicate = errors.New("core: duplicate service registration")
)

// Registration is one entry in a service registry: the published name,
// the interface it provides, its contract, how to invoke it, and
// metadata used by selectors (tags such as node locality). Version is a
// per-registry logical clock used by the gossip synchronisation in
// internal/netbind.
type Registration struct {
	// Name is the unique published service instance name.
	Name string
	// Interface is the provided logical interface (Contract.Interface).
	Interface string
	// Contract is the full service contract.
	Contract *Contract
	// Invoker reaches the service. For local services it is the service
	// itself; for remote entries a network binding client. It is nil in
	// gossip snapshots and re-established by the receiving side.
	Invoker Invoker
	// Address is the network address for remote invocation, empty for
	// purely local services.
	Address string
	// Tags carries selector metadata, e.g. {"node": "edge-1"}.
	Tags map[string]string
	// Version is the registry logical clock value at (re-)registration.
	Version uint64
	// Tombstone marks a deregistered entry retained for gossip.
	Tombstone bool
}

// Clone returns a deep copy (sharing the Invoker, which is immutable
// from the registry's point of view).
func (r *Registration) Clone() *Registration {
	cp := *r
	cp.Contract = r.Contract.Clone()
	if r.Tags != nil {
		cp.Tags = make(map[string]string, len(r.Tags))
		for k, v := range r.Tags {
			cp.Tags[k] = v
		}
	}
	return &cp
}

// Registry is the service registry of Section 3.1: it enables service
// discovery by interface, notifies watchers of changes (late binding
// invalidation), and supports snapshot/merge for P2P-style repository
// updates between distributed registries (Section 4).
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Registration // by Name (including tombstones)
	byIface map[string]map[string]*Registration
	clock   uint64
	bus     *EventBus
}

// NewRegistry creates an empty registry publishing change events to bus
// (which may be nil).
func NewRegistry(bus *EventBus) *Registry {
	return &Registry{
		entries: make(map[string]*Registration),
		byIface: make(map[string]map[string]*Registration),
		bus:     bus,
	}
}

// Register publishes a service registration. Registering an existing
// live name fails with ErrDuplicate; re-registering over a tombstone
// revives the entry.
func (r *Registry) Register(reg *Registration) error {
	if reg.Name == "" || reg.Interface == "" {
		return fmt.Errorf("core: registration needs name and interface")
	}
	if reg.Contract == nil {
		return fmt.Errorf("core: registration %s has no contract", reg.Name)
	}
	r.mu.Lock()
	if old, ok := r.entries[reg.Name]; ok && !old.Tombstone {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicate, reg.Name)
	}
	r.clock++
	cp := reg.Clone()
	cp.Version = r.clock
	cp.Tombstone = false
	r.insertLocked(cp)
	r.mu.Unlock()
	r.publish(EventServiceRegistered, cp.Name, cp.Interface)
	return nil
}

// RegisterService publishes a local service under its contract's
// interface name.
func (r *Registry) RegisterService(s Service, tags map[string]string) error {
	return r.Register(&Registration{
		Name:      s.Name(),
		Interface: s.Contract().Interface,
		Contract:  s.Contract(),
		Invoker:   s,
		Tags:      tags,
	})
}

func (r *Registry) insertLocked(reg *Registration) {
	if old, ok := r.entries[reg.Name]; ok {
		if m := r.byIface[old.Interface]; m != nil {
			delete(m, old.Name)
			if len(m) == 0 {
				delete(r.byIface, old.Interface)
			}
		}
	}
	r.entries[reg.Name] = reg
	if !reg.Tombstone {
		m := r.byIface[reg.Interface]
		if m == nil {
			m = make(map[string]*Registration)
			r.byIface[reg.Interface] = m
		}
		m[reg.Name] = reg
	}
}

// Deregister removes a service by name, leaving a tombstone so the
// removal propagates through gossip.
func (r *Registry) Deregister(name string) error {
	r.mu.Lock()
	reg, ok := r.entries[name]
	if !ok || reg.Tombstone {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	r.clock++
	ts := reg.Clone()
	ts.Tombstone = true
	ts.Version = r.clock
	ts.Invoker = nil
	r.insertLocked(ts)
	r.mu.Unlock()
	r.publish(EventServiceDeregistered, name, reg.Interface)
	return nil
}

// Lookup returns the live registration with the given name.
func (r *Registry) Lookup(name string) (*Registration, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.entries[name]
	if !ok || reg.Tombstone {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return reg, nil
}

// Discover returns all live registrations providing the interface,
// sorted by name for determinism.
func (r *Registry) Discover(iface string) []*Registration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := r.byIface[iface]
	out := make([]*Registration, 0, len(m))
	for _, reg := range m {
		out = append(out, reg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// All returns every live registration sorted by name.
func (r *Registry) All() []*Registration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Registration, 0, len(r.entries))
	for _, reg := range r.entries {
		if !reg.Tombstone {
			out = append(out, reg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of live registrations.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, reg := range r.entries {
		if !reg.Tombstone {
			n++
		}
	}
	return n
}

// Snapshot returns copies of every entry (including tombstones) with
// version greater than since, for gossip exchange. Invokers are
// stripped; receivers reconstruct them from Address.
func (r *Registry) Snapshot(since uint64) []*Registration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Registration
	for _, reg := range r.entries {
		if reg.Version > since {
			cp := reg.Clone()
			cp.Invoker = nil
			out = append(out, cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// Merge applies a gossip snapshot from a peer registry. An incoming
// entry wins when the local registry has no entry of that name;
// otherwise local entries win unless the incoming one is a tombstone
// for a remote (address-bearing) entry we hold. resolve, when non-nil,
// converts an address into an Invoker for revived remote entries.
// It returns the number of entries applied.
func (r *Registry) Merge(snapshot []*Registration, resolve func(address, name string) Invoker) int {
	applied := 0
	for _, in := range snapshot {
		r.mu.Lock()
		local, ok := r.entries[in.Name]
		switch {
		case !ok:
			// New entry from the peer.
			r.clock++
			cp := in.Clone()
			cp.Version = r.clock
			if !cp.Tombstone && cp.Invoker == nil && cp.Address != "" && resolve != nil {
				cp.Invoker = resolve(cp.Address, cp.Name)
			}
			if cp.Tombstone || cp.Invoker != nil {
				r.insertLocked(cp)
				applied++
			}
		case local.Address != "" && in.Tombstone && !local.Tombstone:
			// Peer observed removal of a remote service we know.
			r.clock++
			ts := local.Clone()
			ts.Tombstone = true
			ts.Invoker = nil
			ts.Version = r.clock
			r.insertLocked(ts)
			applied++
		}
		r.mu.Unlock()
	}
	if applied > 0 {
		r.publish(EventReconfigured, "registry", fmt.Sprintf("merged %d gossip entries", applied))
	}
	return applied
}

func (r *Registry) publish(t EventType, subject, detail string) {
	if r.bus != nil {
		r.bus.Publish(Event{Type: t, Subject: subject, Detail: detail})
	}
}
