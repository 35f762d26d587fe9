package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/netbind"
)

// Transport delivers one service invocation to one cluster node. The
// production transport is netbind (TCP + gob); tests wrap any transport
// in a FaultTransport to inject drops, duplicates, partitions and node
// kills deterministically.
type Transport interface {
	Invoke(ctx context.Context, node NodeID, service, op string, req any) (any, error)
}

// Transport errors.
var (
	// ErrUnknownNode is returned for a node the transport has no route to.
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrNodeDown is returned for a killed node.
	ErrNodeDown = errors.New("cluster: node down (kill -9)")
	// ErrPartitioned is returned while a partition separates the caller
	// from the target node.
	ErrPartitioned = errors.New("cluster: partitioned from node")
	// ErrDropped is returned for a message eaten by injected loss.
	ErrDropped = errors.New("cluster: message dropped (injected)")
)

// IsUnavailable reports whether err is a transport-level reachability
// failure (dead node, partition, injected loss, missing route) — the
// class a router reacts to by refreshing its map and replanning, as the
// topology may have moved on (e.g. a failover replaced the leader).
func IsUnavailable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrNodeDown) || errors.Is(err, ErrPartitioned) ||
		errors.Is(err, ErrDropped) || errors.Is(err, ErrUnknownNode) {
		return true
	}
	// netbind flattens remote errors and surfaces dial failures typed;
	// match the failure text conservatively.
	msg := err.Error()
	return strings.Contains(msg, "connection refused") || strings.Contains(msg, "connect: ")
}

// LocalTransport dispatches in process: each node exposes a core
// registry and invocations go straight through it. The zero-overhead
// path for the deterministic harness and single-process benches.
type LocalTransport struct {
	mu   sync.RWMutex
	regs map[NodeID]*core.Registry
}

// NewLocalTransport creates an empty local transport.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{regs: make(map[NodeID]*core.Registry)}
}

// Register routes node to reg.
func (t *LocalTransport) Register(node NodeID, reg *core.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.regs[node] = reg
}

// Invoke implements Transport.
func (t *LocalTransport) Invoke(ctx context.Context, node NodeID, service, op string, req any) (any, error) {
	t.mu.RLock()
	reg := t.regs[node]
	t.mu.RUnlock()
	if reg == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, node)
	}
	r, err := reg.Lookup(service)
	if err != nil {
		return nil, err
	}
	return r.Invoker.Invoke(ctx, op, req)
}

// NetTransport reaches each node's netbind server over TCP. Typed
// errors from the remote side arrive flattened to strings (wrapped in
// netbind.ErrRemote); the Is* helpers in this package match on message
// substrings for exactly that reason.
type NetTransport struct {
	mu      sync.RWMutex
	clients map[NodeID]*netbind.Client
}

// NewNetTransport creates an empty net transport.
func NewNetTransport() *NetTransport {
	return &NetTransport{clients: make(map[NodeID]*netbind.Client)}
}

// SetAddr routes node to a netbind server address.
func (t *NetTransport) SetAddr(node NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.clients[node]; old != nil {
		_ = old.Close()
	}
	t.clients[node] = netbind.NewClient(addr)
}

// Invoke implements Transport.
func (t *NetTransport) Invoke(ctx context.Context, node NodeID, service, op string, req any) (any, error) {
	t.mu.RLock()
	c := t.clients[node]
	t.mu.RUnlock()
	if c == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, node)
	}
	return c.Call(ctx, service, op, req)
}

// Close releases every client connection.
func (t *NetTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.clients {
		_ = c.Close()
	}
	t.clients = make(map[NodeID]*netbind.Client)
}

// FaultTransport wraps a Transport with deterministic fault injection.
// All faults are counter- or set-based (no randomness): tests arm
// exactly the fault they need and the schedule replays identically at
// any GOMAXPROCS.
type FaultTransport struct {
	inner Transport

	mu       sync.Mutex
	killed   map[NodeID]bool
	isolated map[NodeID]bool
	dropNext map[NodeID]int
	dupNext  map[NodeID]int
	dropped  uint64
	dupes    uint64
}

// NewFaultTransport wraps inner with initially-clean fault state.
func NewFaultTransport(inner Transport) *FaultTransport {
	return &FaultTransport{
		inner:    inner,
		killed:   make(map[NodeID]bool),
		isolated: make(map[NodeID]bool),
		dropNext: make(map[NodeID]int),
		dupNext:  make(map[NodeID]int),
	}
}

// Kill marks node dead: every later invocation to it fails with
// ErrNodeDown. Pair it with crashing the node's FaultDevices for a
// full kill -9.
func (t *FaultTransport) Kill(node NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.killed[node] = true
}

// Isolate partitions the listed nodes away: invocations to them fail
// with ErrPartitioned until Heal.
func (t *FaultTransport) Isolate(nodes ...NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range nodes {
		t.isolated[n] = true
	}
}

// Heal removes every partition.
func (t *FaultTransport) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.isolated = make(map[NodeID]bool)
}

// DropNext eats the next n invocations to node (each fails with
// ErrDropped; the request never reaches the node).
func (t *FaultTransport) DropNext(node NodeID, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropNext[node] = n
}

// DuplicateNext delivers the next n invocations to node twice
// (redelivery; the caller sees the second result).
func (t *FaultTransport) DuplicateNext(node NodeID, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dupNext[node] = n
}

// Dropped returns how many invocations injected loss has eaten.
func (t *FaultTransport) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Duplicated returns how many invocations were delivered twice.
func (t *FaultTransport) Duplicated() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dupes
}

// Invoke implements Transport, applying armed faults in order: kill,
// partition, drop, duplicate.
func (t *FaultTransport) Invoke(ctx context.Context, node NodeID, service, op string, req any) (any, error) {
	t.mu.Lock()
	switch {
	case t.killed[node]:
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, node)
	case t.isolated[node]:
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrPartitioned, node)
	}
	if n := t.dropNext[node]; n > 0 {
		t.dropNext[node] = n - 1
		t.dropped++
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: to %s", ErrDropped, node)
	}
	dup := false
	if n := t.dupNext[node]; n > 0 {
		t.dupNext[node] = n - 1
		t.dupes++
		dup = true
	}
	t.mu.Unlock()

	if dup {
		// First delivery: the receiver sees the request twice; the
		// caller only observes the second reply (redelivery semantics).
		_, _ = t.inner.Invoke(ctx, node, service, op, req)
	}
	return t.inner.Invoke(ctx, node, service, op, req)
}
