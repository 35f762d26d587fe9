// Package txn implements the transactional services of the SBDMS Data
// layer: a lock manager with shared/exclusive modes, FIFO admission and
// wait-for-graph deadlock detection, and a transaction manager providing
// 2PL transactions with WAL-backed durability (begin/commit/abort
// records, undo via before images).
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Lock manager errors.
var (
	// ErrDeadlock is returned to the transaction chosen as deadlock
	// victim; the caller must abort it.
	ErrDeadlock = errors.New("txn: deadlock detected")
)

// LockMode is the requested access mode.
type LockMode int

// Lock modes.
const (
	Shared LockMode = iota
	Exclusive
)

// String implements fmt.Stringer.
func (m LockMode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// conflicts reports whether two modes cannot be held concurrently by
// different transactions.
func conflicts(a, b LockMode) bool {
	return a == Exclusive || b == Exclusive
}

// lockRequest is one waiting entry in a resource's FIFO queue. The
// waiter parks on ready; the releaser that grants the request closes it.
type lockRequest struct {
	txn     uint64
	mode    LockMode
	upgrade bool          // converting an existing S grant to X
	ready   chan struct{} // closed when granted
}

// lockState is one resource: the granted group plus the FIFO queue of
// waiters. Grants happen strictly in queue order — a release scans the
// queue from the front and stops at the first waiter that cannot be
// admitted, so no later request (however compatible) barges past it.
// The one exception is lock upgrades, which enter at the FRONT of the
// queue: an upgrader already holds the resource, so letting anyone
// else in first could only deadlock it.
type lockState struct {
	holders map[uint64]LockMode
	queue   []*lockRequest
}

// waitEntry records the single resource a transaction is currently
// blocked on (Acquire is synchronous, so there is at most one). The
// deadlock detector derives wait-for edges from these entries and the
// live queue contents on every check — edges are never cached, so they
// cannot go stale.
type waitEntry struct {
	resource string
	st       *lockState
	req      *lockRequest
}

// LockManager grants S/X locks on named resources to transactions.
// Admission is fair: conflicting requests park in a per-resource FIFO
// queue and are granted strictly in arrival order (no new reader is
// admitted past a waiting writer), so a sustained shared stream cannot
// starve an exclusive requester. A requester whose wait would close a
// cycle in the wait-for graph is refused with ErrDeadlock.
type LockManager struct {
	mu      sync.Mutex
	locks   map[string]*lockState
	waiting map[uint64]*waitEntry
}

// NewLockManager creates an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{
		locks:   make(map[string]*lockState),
		waiting: make(map[uint64]*waitEntry),
	}
}

// compatibleLocked reports whether txn's mode conflicts with no other
// current holder of st.
func compatibleLocked(st *lockState, txn uint64, mode LockMode) bool {
	for holder, hmode := range st.holders {
		if holder == txn {
			continue
		}
		if conflicts(mode, hmode) {
			return false
		}
	}
	return true
}

// grantableLocked reports whether a NEW request (not an already-granted
// one) can be admitted immediately. Upgrades bypass the queue but need
// the holder group to themselves; fresh requests must find the queue
// empty — anything else would barge past a waiter.
func grantableLocked(st *lockState, txn uint64, mode LockMode, upgrade bool) bool {
	if upgrade {
		_, holds := st.holders[txn]
		return holds && len(st.holders) == 1
	}
	return len(st.queue) == 0 && compatibleLocked(st, txn, mode)
}

// heldStrongly reports whether txn already holds st at or above mode.
func heldStrongly(st *lockState, txn uint64, mode LockMode) bool {
	held, ok := st.holders[txn]
	return ok && (held == Exclusive || held == mode)
}

// Acquire blocks until txn holds the resource in mode (or stronger).
// Lock upgrades (S held, X requested) are supported and jump to the
// front of the wait queue. Returns ErrDeadlock when waiting would
// deadlock, or the context error when ctx is cancelled while waiting.
func (lm *LockManager) Acquire(ctx context.Context, txn uint64, resource string, mode LockMode) error {
	lm.mu.Lock()
	st := lm.locks[resource]
	if st == nil {
		st = &lockState{holders: make(map[uint64]LockMode)}
		lm.locks[resource] = st
	}
	if heldStrongly(st, txn, mode) {
		lm.mu.Unlock()
		return nil
	}
	_, holds := st.holders[txn]
	upgrade := holds && mode == Exclusive
	if grantableLocked(st, txn, mode, upgrade) {
		st.holders[txn] = mode
		lm.mu.Unlock()
		return nil
	}
	if err := ctx.Err(); err != nil {
		lm.cleanupLocked(resource, st)
		lm.mu.Unlock()
		return err
	}
	req := &lockRequest{txn: txn, mode: mode, upgrade: upgrade, ready: make(chan struct{})}
	if upgrade {
		st.queue = append([]*lockRequest{req}, st.queue...)
	} else {
		st.queue = append(st.queue, req)
	}
	lm.waiting[txn] = &waitEntry{resource: resource, st: st, req: req}
	// Every edge a new wait can add to the graph points at (or out of)
	// this request, so checking for a cycle reachable from txn right
	// here catches every deadlock the system can ever enter.
	if lm.cycleFromLocked(txn) {
		lm.dropRequestLocked(txn, resource, st, req)
		lm.mu.Unlock()
		return fmt.Errorf("%w: txn %d on %s/%s", ErrDeadlock, txn, resource, mode)
	}
	lm.mu.Unlock()

	select {
	case <-req.ready:
		return nil
	case <-ctx.Done():
		lm.mu.Lock()
		select {
		case <-req.ready:
			// Granted in the race with cancellation: keep the grant; the
			// caller's next ctx check (or its release path) handles the
			// cancellation.
			lm.mu.Unlock()
			return nil
		default:
		}
		lm.dropRequestLocked(txn, resource, st, req)
		lm.mu.Unlock()
		return ctx.Err()
	}
}

// TryAcquire grants the resource to txn immediately if FIFO admission
// allows it (held strongly enough already, or compatible with the
// holders with no waiter queued ahead), and reports whether it did. It
// never blocks, which makes it safe to call while holding page latches:
// callers that get false must release their latches before falling back
// to the blocking Acquire.
func (lm *LockManager) TryAcquire(txn uint64, resource string, mode LockMode) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	st := lm.locks[resource]
	if st == nil {
		st = &lockState{holders: make(map[uint64]LockMode)}
		lm.locks[resource] = st
	}
	if heldStrongly(st, txn, mode) {
		return true
	}
	_, holds := st.holders[txn]
	upgrade := holds && mode == Exclusive
	if grantableLocked(st, txn, mode, upgrade) {
		st.holders[txn] = mode
		return true
	}
	lm.cleanupLocked(resource, st)
	return false
}

// dropRequestLocked removes a waiting request (deadlock victim or
// cancelled waiter) and re-runs admission: the removed entry may have
// been the only thing blocking the requests behind it.
func (lm *LockManager) dropRequestLocked(txn uint64, resource string, st *lockState, req *lockRequest) {
	for i, q := range st.queue {
		if q == req {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			break
		}
	}
	if w := lm.waiting[txn]; w != nil && w.req == req {
		delete(lm.waiting, txn)
	}
	lm.grantLocked(resource, st)
}

// grantLocked admits waiters from the front of the queue while FIFO
// order allows, then garbage-collects an empty state.
func (lm *LockManager) grantLocked(resource string, st *lockState) {
	for len(st.queue) > 0 {
		req := st.queue[0]
		admit := false
		if req.upgrade {
			_, holds := st.holders[req.txn]
			admit = holds && len(st.holders) == 1
		} else {
			admit = compatibleLocked(st, req.txn, req.mode)
		}
		if !admit {
			break
		}
		st.holders[req.txn] = req.mode
		st.queue = st.queue[1:]
		if w := lm.waiting[req.txn]; w != nil && w.req == req {
			delete(lm.waiting, req.txn)
		}
		close(req.ready)
	}
	lm.cleanupLocked(resource, st)
}

func (lm *LockManager) cleanupLocked(resource string, st *lockState) {
	if len(st.holders) == 0 && len(st.queue) == 0 {
		delete(lm.locks, resource)
	}
}

// blockersLocked derives txn's current wait-for edges from the queue it
// is parked in: every conflicting holder, plus every conflicting waiter
// queued ahead of it (FIFO admission makes those real waits too).
func (lm *LockManager) blockersLocked(txn uint64) []uint64 {
	w := lm.waiting[txn]
	if w == nil {
		return nil
	}
	var out []uint64
	for holder, hmode := range w.st.holders {
		if holder != txn && conflicts(w.req.mode, hmode) {
			out = append(out, holder)
		}
	}
	for _, q := range w.st.queue {
		if q == w.req {
			break
		}
		if q.txn != txn && conflicts(w.req.mode, q.mode) {
			out = append(out, q.txn)
		}
	}
	return out
}

// cycleFromLocked reports whether the wait-for graph contains a cycle
// through start. Edges are computed from the live queues on every call,
// so released blockers disappear from the graph instantly — no phantom
// deadlocks from stale edges.
func (lm *LockManager) cycleFromLocked(start uint64) bool {
	seen := map[uint64]bool{}
	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		if u == start {
			return true
		}
		if seen[u] {
			return false
		}
		seen[u] = true
		for _, v := range lm.blockersLocked(u) {
			if dfs(v) {
				return true
			}
		}
		return false
	}
	for _, v := range lm.blockersLocked(start) {
		if dfs(v) {
			return true
		}
	}
	return false
}

// Release drops txn's lock on the resource and admits whatever the FIFO
// queue allows next. The engine releases only through ReleaseAll, at the
// end of a transaction; Release is the one-lock form that bench/'s
// lock-pair probe times.
func (lm *LockManager) Release(txn uint64, resource string) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	st := lm.locks[resource]
	if st == nil {
		return fmt.Errorf("txn: lock %s not held", resource)
	}
	if _, ok := st.holders[txn]; !ok {
		return fmt.Errorf("txn: lock %s not held by txn %d", resource, txn)
	}
	delete(st.holders, txn)
	lm.grantLocked(resource, st)
	return nil
}

// ReleaseAll drops every lock txn holds (end of 2PL) and admits waiters
// on each affected resource.
func (lm *LockManager) ReleaseAll(txn uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for res, st := range lm.locks {
		if _, ok := st.holders[txn]; ok {
			delete(st.holders, txn)
			lm.grantLocked(res, st)
		}
	}
}

// Held returns the mode txn holds on resource, if any.
func (lm *LockManager) Held(txn uint64, resource string) (LockMode, bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if st := lm.locks[resource]; st != nil {
		m, ok := st.holders[txn]
		return m, ok
	}
	return Shared, false
}

// Locked returns the number of currently locked (or waited-on)
// resources.
func (lm *LockManager) Locked() int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.locks)
}

// Waiters returns the number of requests queued on the resource —
// observability for fairness tests and experiments.
func (lm *LockManager) Waiters(resource string) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if st := lm.locks[resource]; st != nil {
		return len(st.queue)
	}
	return 0
}
