package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Selector chooses among multiple registrations providing the same
// interface. It is the policy half of flexibility by selection
// (Section 3.5): the architecture "can choose and use [workflows]
// according to specific requirements ... based on available resources
// or other criteria".
type Selector func(candidates []*Registration) *Registration

// SelectFirst picks the lexicographically first candidate; deterministic
// and cheap, the default strategy.
func SelectFirst(cands []*Registration) *Registration {
	if len(cands) == 0 {
		return nil
	}
	return cands[0]
}

// SelectByTag prefers candidates whose tag matches the wanted value
// (e.g. node locality for the Section 4 distributed scenario), falling
// back to the next selector for ties or when no candidate matches.
func SelectByTag(key, value string, next Selector) Selector {
	if next == nil {
		next = SelectFirst
	}
	return func(cands []*Registration) *Registration {
		var matching []*Registration
		for _, c := range cands {
			if c.Tags[key] == value {
				matching = append(matching, c)
			}
		}
		if len(matching) > 0 {
			return next(matching)
		}
		return next(cands)
	}
}

// Ref is a late-bound service reference: it resolves a provider of an
// interface through the registry at call time and caches the choice
// until the registry changes or the provider fails. Late binding is
// what makes the architecture reconfigurable (Section 3.3: "services
// are designed for late binding, which allows a high degree of
// flexibility and architecture reconfigurability").
type Ref struct {
	registry *Registry
	iface    string
	selector Selector

	mu    sync.RWMutex
	avoid map[string]bool

	cached atomic.Pointer[Registration]
	// cacheEnabled=false forces a registry lookup on every call; the
	// G4 ablation benchmark measures the difference.
	cacheEnabled bool
	// gen counts invalidations, so a resolution that raced one does not
	// cache a choice made on stale avoidance or registry state.
	gen atomic.Uint64
}

// NewRef creates a late-bound reference to any provider of iface in the
// registry, using the given selector (nil means SelectFirst). The
// resolved provider is cached; Invalidate or registry events clear it.
func NewRef(registry *Registry, iface string, sel Selector) *Ref {
	if sel == nil {
		sel = SelectFirst
	}
	return &Ref{registry: registry, iface: iface, selector: sel, cacheEnabled: true, avoid: make(map[string]bool)}
}

// NewUncachedRef creates a reference that re-resolves through the
// registry on every invocation (pure late binding, no caching).
func NewUncachedRef(registry *Registry, iface string, sel Selector) *Ref {
	r := NewRef(registry, iface, sel)
	r.cacheEnabled = false
	return r
}

// Interface returns the required interface name.
func (r *Ref) Interface() string { return r.iface }

// Avoid steers the reference away from a named provider (it will only
// be used when no alternative exists). Passing avoid=false removes the
// restriction.
func (r *Ref) Avoid(name string, avoid bool) {
	r.mu.Lock()
	if avoid {
		r.avoid[name] = true
	} else {
		delete(r.avoid, name)
	}
	r.mu.Unlock()
	r.Invalidate()
}

// Invalidate clears the cached provider; the next call re-resolves.
func (r *Ref) Invalidate() {
	r.gen.Add(1)
	r.cached.Store(nil)
}

// Resolve returns the currently selected provider, consulting the
// cache when enabled.
func (r *Ref) Resolve() (*Registration, error) {
	if r.cacheEnabled {
		if reg := r.cached.Load(); reg != nil {
			return reg, nil
		}
	}
	gen := r.gen.Load()
	cands := r.registry.Discover(r.iface)
	r.mu.RLock()
	if len(r.avoid) > 0 && len(cands) > 0 {
		var rest []*Registration
		for _, c := range cands {
			if !r.avoid[c.Name] {
				rest = append(rest, c)
			}
		}
		if len(rest) > 0 {
			cands = rest
		}
	}
	r.mu.RUnlock()
	reg := r.selector(cands)
	if reg == nil {
		return nil, fmt.Errorf("%w: no provider for interface %s", ErrNotFound, r.iface)
	}
	if r.cacheEnabled {
		r.cached.Store(reg)
		// An Invalidate since gen was read may have steered away from
		// reg; its Store(nil) could have landed before ours.
		if r.gen.Load() != gen {
			r.cached.CompareAndSwap(reg, nil)
		}
	}
	return reg, nil
}

// Current returns the name of the cached provider, or "" when
// unresolved. It never triggers resolution.
func (r *Ref) Current() string {
	if reg := r.cached.Load(); reg != nil {
		return reg.Name
	}
	return ""
}

// Invoke implements Invoker: it resolves the provider and forwards the
// call. If the provider fails with ErrNotRunning (it stopped between
// resolution and call), the cache is invalidated and resolution retried
// once — the minimal self-healing required for coordinator-driven
// recomposition to be transparent to callers.
func (r *Ref) Invoke(ctx context.Context, op string, req any) (any, error) {
	reg, err := r.Resolve()
	if err != nil {
		return nil, err
	}
	resp, err := reg.Invoker.Invoke(ctx, op, req)
	if err != nil && isUnavailable(err) {
		r.Invalidate()
		reg2, err2 := r.Resolve()
		if err2 != nil || reg2.Name == reg.Name {
			return resp, err
		}
		return reg2.Invoker.Invoke(ctx, op, req)
	}
	return resp, err
}

func isUnavailable(err error) bool {
	for e := err; e != nil; {
		if e == ErrNotRunning {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}
