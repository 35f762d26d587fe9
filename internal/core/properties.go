package core

import "sync"

// Properties is the property mechanism of Section 3.6: a string map
// read by components at instantiation to customise their behaviour. A
// component sees its composite's properties overlaid by its own. It is
// safe for concurrent use.
type Properties struct {
	mu     sync.RWMutex
	values map[string]string
}

// NewProperties creates an empty property set.
func NewProperties() *Properties {
	return &Properties{values: make(map[string]string)}
}

// Set stores a property.
func (p *Properties) Set(key, value string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.values[key] = value
}

// Get returns the property value and whether it is present.
func (p *Properties) Get(key string) (string, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	v, ok := p.values[key]
	return v, ok
}

// String returns the property or def when absent.
func (p *Properties) String(key, def string) string {
	if v, ok := p.Get(key); ok {
		return v
	}
	return def
}
