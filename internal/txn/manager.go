package txn

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Transaction errors.
var (
	// ErrTxnDone is returned for operations on a finished transaction.
	ErrTxnDone = errors.New("txn: transaction already finished")
	// ErrNoUndoHandler is returned when a rollback meets a logical undo
	// descriptor but no handler was installed.
	ErrNoUndoHandler = errors.New("txn: no logical undo handler installed")
)

// Status is the lifecycle state of a transaction.
type Status int

// Transaction states.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Txn is one transaction. It implements access.TxnContext so heap files
// log their mutations under it, and collects those records for undo.
type Txn struct {
	id  uint64
	mgr *Manager

	mu        sync.Mutex
	status    Status
	lastLSN   wal.LSN // zero until the transaction logs its first record
	undo      []*wal.Record
	committed []func()
	stamps    []func(ts uint64) error
	commitTS  uint64
}

// ID implements access.TxnContext.
func (t *Txn) ID() uint64 { return t.id }

// LastLSN implements access.TxnContext.
func (t *Txn) LastLSN() wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLSN
}

// Record implements access.TxnContext: it registers an appended update
// record for undo and LSN chaining.
func (t *Txn) Record(rec *wal.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastLSN = rec.LSN
	t.undo = append(t.undo, rec)
}

// OnCommitted registers a callback run after the transaction's commit
// record is durable (and never on abort). The engine uses it to defer
// page deallocation until the commit that unlinked the page can no
// longer be rolled back — freeing earlier would let the allocator hand
// the page out while a crash could still resurrect the old reference.
func (t *Txn) OnCommitted(f func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.committed = append(t.committed, f)
}

// OnCommitTS registers a stamping callback: at commit, after a commit
// timestamp is allocated but BEFORE the commit record is appended, the
// callback runs with that timestamp while the transaction is still
// active — so the page mutations it performs (stamping version begin
// fields) are logged with undo descriptors and roll back with the
// transaction if anything fails. The MVCC KV core registers one per
// version it created; a transaction with no stamps commits without
// consuming a timestamp.
func (t *Txn) OnCommitTS(f func(ts uint64) error) {
	t.mu.Lock()
	t.stamps = append(t.stamps, f)
	t.mu.Unlock()
}

func (t *Txn) takeStamps() []func(ts uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.stamps
	t.stamps = nil
	return out
}

// SetCommitTS pre-stamps the transaction with an externally allocated
// commit timestamp. Bulk ingest writes its version cells with the
// commit timestamp already in the begin field (no per-version stamping
// callbacks), but the commit record must still embed the timestamp —
// recovery reseeds the oracle's clock from commit records, and a clock
// below the imported versions would let a post-crash commit outrank
// them. The caller owns the timestamp's lifecycle: it allocated it from
// the oracle and must Complete it after the commit is durable (or after
// a clean rollback); the manager completes only timestamps it allocated
// itself.
func (t *Txn) SetCommitTS(ts uint64) {
	t.mu.Lock()
	t.commitTS = ts
	t.mu.Unlock()
}

func (t *Txn) takeCommitted() []func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.committed
	t.committed = nil
	return out
}

// Status returns the transaction state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Updates returns how many update records the transaction logged.
func (t *Txn) Updates() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.undo)
}

// Lock acquires a lock on behalf of the transaction (2PL growth phase).
func (t *Txn) Lock(ctx context.Context, resource string, mode LockMode) error {
	if t.Status() != StatusActive {
		return ErrTxnDone
	}
	return t.mgr.locks.Acquire(ctx, t.id, resource, mode)
}

// UndoHandler executes the logical inverse of a WAL record (see
// internal/undo). The tx passed in is a compensation context: records
// logged through it carry the redo-only marker.
type UndoHandler interface {
	UndoRecord(tx access.TxnContext, rec *wal.Record) error
}

// Manager creates and finishes transactions over one log. The commit or
// abort of a transaction that logged something is itself logged, and
// commit forces the log; a transaction that logged nothing leaves no
// trace in it.
type Manager struct {
	log    *wal.Log
	store  storage.PageStore // for undo application and checkpoint flushes; may be nil (log-only)
	locks  *LockManager
	oracle *Oracle
	next   atomic.Uint64
	undo   atomic.Pointer[UndoHandler]

	mu     sync.Mutex
	active map[uint64]*Txn

	// ckptMu serialises fuzzy checkpoints: two interleaved checkpoints
	// could otherwise complete out of order and persist a manifest
	// whose recovery-begin LSN points into segments the other already
	// truncated.
	ckptMu sync.Mutex

	// commitDurability, when set, replaces the local log force in
	// FinishCommit (async commit). See SetCommitDurability.
	commitDurability atomic.Pointer[func(upTo wal.LSN) error]
}

// NewManager creates a transaction manager over log. store may be nil
// for log-only operation: rollback then appends compensation records
// without restoring pages, and checkpoints have no pages to flush.
func NewManager(log *wal.Log, store storage.PageStore) *Manager {
	return &Manager{
		log:    log,
		store:  store,
		locks:  NewLockManager(),
		oracle: NewOracle(),
		active: make(map[uint64]*Txn),
	}
}

// Locks exposes the lock manager.
func (m *Manager) Locks() *LockManager { return m.locks }

// Oracle exposes the commit-timestamp oracle (MVCC snapshot reads).
func (m *Manager) Oracle() *Oracle { return m.oracle }

// SetUndoHandler installs the logical-undo executor. Must be set before
// any transaction logging logical undo descriptors can abort.
func (m *Manager) SetUndoHandler(h UndoHandler) { m.undo.Store(&h) }

func (m *Manager) undoHandler() UndoHandler {
	if p := m.undo.Load(); p != nil {
		return *p
	}
	return nil
}

// ReserveID hands out a transaction-id-space identifier without
// starting a transaction. Lock-only sessions (a vacuum pass's per-key
// locks) use it so their lock owners never collide with real
// transactions.
func (m *Manager) ReserveID() uint64 { return m.next.Add(1) }

// SystemHooks adapts the manager into the access-layer system
// transaction interface: short WAL-logged page mutations (B+tree
// structure modifications) that begin and commit
// independently of any user transaction. Commits are lazy — WAL
// ordering makes them durable before any dependent user commit is
// acknowledged.
func (m *Manager) SystemHooks() access.SystemTxnHooks {
	return access.SystemTxnHooks{
		Begin: func() (access.TxnContext, error) {
			t, err := m.Begin()
			if err != nil {
				return nil, err
			}
			return t, nil
		},
		Commit: func(c access.TxnContext) error { return m.CommitLazy(c.(*Txn)) },
		Abort:  func(c access.TxnContext) error { return m.Abort(c.(*Txn)) },
	}
}

// SystemHooksHeldLatches is SystemHooks for callers that keep the
// exclusive page latches of every page the transaction touched for the
// transaction's whole lifetime (B+tree structure modifications). Its
// Abort restores pages with plain writes instead of re-latching them —
// re-latching would self-deadlock on the caller's own latches, and the
// held latches already exclude every other writer.
func (m *Manager) SystemHooksHeldLatches() access.SystemTxnHooks {
	h := m.SystemHooks()
	h.Abort = func(c access.TxnContext) error { return m.abort(c.(*Txn), false) }
	return h
}

// Begin starts a transaction. Nothing is logged: the log opens a
// transaction at its first update record (and so does recovery's
// analysis), so one that never writes costs the log nothing.
func (m *Manager) Begin() (*Txn, error) {
	id := m.next.Add(1)
	t := &Txn{id: id, mgr: m}
	m.mu.Lock()
	m.active[id] = t
	m.mu.Unlock()
	return t, nil
}

// Commit finishes the transaction: RecCommit is logged and the log
// flushed (durability), then all locks are released. A transaction that
// logged nothing and has no stamps or on-commit hooks pending skips
// both — there is nothing to make durable. A transaction that stamped
// versions returns only once every older commit timestamp has
// completed as well (Oracle.WaitVisible): acknowledged ⇒ visible to
// every later snapshot. If the oracle is halted meanwhile (a commit
// left in doubt took the engine offline) it returns ErrHalted.
func (m *Manager) Commit(t *Txn) error { return m.commit(t, true) }

// CommitLazy finishes the transaction without forcing the log: the
// commit record becomes durable with the next forced flush. System
// transactions (file-directory maintenance) use it — WAL ordering
// guarantees their records are durable before any dependent user
// commit is acknowledged.
func (m *Manager) CommitLazy(t *Txn) error { return m.commit(t, false) }

func (m *Manager) commit(t *Txn, flush bool) error {
	// MVCC commit stamping: allocate the commit timestamp and stamp it
	// over every version the transaction created WHILE the transaction
	// is still active — the stamp mutations are WAL-logged with undo
	// descriptors, so an abort (or crash) reverts them with everything
	// else. Only after the commit record is durable does Complete let
	// the oracle's visibility frontier advance past the timestamp.
	stamps := t.takeStamps()
	if len(stamps) == 0 {
		if done, err := m.commitIdle(t); done {
			return err
		}
	}
	var ts uint64
	if len(stamps) > 0 {
		ts = m.oracle.AllocateCommitTS()
		for _, f := range stamps {
			if err := f(ts); err != nil {
				// Roll back: stamps applied so far carry undo and revert
				// with the transaction. Complete only after a clean
				// rollback — a failed one leaves stamped versions in
				// doubt, and the frontier must not advance over them.
				if aerr := m.Abort(t); aerr != nil {
					return fmt.Errorf("txn: commit stamping: %w (abort: %v)", err, aerr)
				}
				m.oracle.Complete(ts)
				return fmt.Errorf("txn: commit stamping: %w", err)
			}
		}
		t.mu.Lock()
		t.commitTS = ts
		t.mu.Unlock()
	}
	lsn, err := m.CommitAppend(t)
	if err != nil {
		// The commit record may not be in the log: the timestamp stays
		// outstanding so no snapshot ever reads the stamped versions,
		// and the caller must treat the engine as failed.
		return err
	}
	// On-commit hooks require durability even on the lazy path; so does
	// releasing a commit timestamp to readers.
	if !flush && ts == 0 && len(t.takeCommittedPeek()) == 0 {
		m.finish(t)
		return nil
	}
	if err := m.FinishCommit(t, lsn); err != nil {
		return err // ts (if any) deliberately stays outstanding
	}
	if ts == 0 {
		return nil
	}
	// Acknowledge in timestamp order: return only once every older
	// commit has completed too, so the snapshot frontier already holds
	// this one. The locks are released by now; the wait holds nothing.
	m.oracle.Complete(ts)
	return m.oracle.WaitVisible(ts)
}

// commitIdle commits a transaction that has nothing for the log — no
// record, no on-commit hook, no pre-set commit timestamp (the caller
// checked for stamps) — by releasing its locks: no commit record, no
// flush. It reports false, having touched nothing, for any other.
func (m *Manager) commitIdle(t *Txn) (bool, error) {
	t.mu.Lock()
	if t.lastLSN != wal.ZeroLSN || len(t.committed) != 0 || t.commitTS != 0 {
		t.mu.Unlock()
		return false, nil
	}
	if t.status != StatusActive {
		t.mu.Unlock()
		return true, ErrTxnDone
	}
	t.status = StatusCommitted
	t.mu.Unlock()
	m.finish(t)
	return true, nil
}

// takeCommittedPeek reports pending on-commit hooks without consuming
// them (helper for the lazy-commit fast path).
func (t *Txn) takeCommittedPeek() []func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.committed
}

// CommitAppend moves the transaction to committed and appends its
// commit record WITHOUT forcing the log or deregistering it: the
// transaction keeps counting as in flight until FinishCommit forces
// durability and releases it. Callers that commit while holding an
// engine lock use the pair to keep commit ordering under the lock but
// pay the log force outside it.
func (m *Manager) CommitAppend(t *Txn) (wal.LSN, error) {
	t.mu.Lock()
	if t.status != StatusActive {
		t.mu.Unlock()
		return wal.ZeroLSN, ErrTxnDone
	}
	t.status = StatusCommitted
	prev := t.lastLSN
	ts := t.commitTS
	t.mu.Unlock()
	rec := &wal.Record{Txn: t.id, Type: wal.RecCommit, PrevLSN: prev}
	if ts != 0 {
		// Embed the commit timestamp so recovery can restore the
		// oracle's clock above every stamped version on disk.
		rec.After = make([]byte, 8)
		binary.LittleEndian.PutUint64(rec.After, ts)
	}
	return m.log.Append(rec)
}

// FinishCommit forces the log through the commit record appended by
// CommitAppend, deregisters the transaction, and runs its on-commit
// hooks (which may now safely free pages the commit unlinked). On a
// flush failure the transaction stays registered with its locks held —
// its durability is in doubt, so the engine must treat itself as
// failed (the KV core poisons itself) rather than proceed.
func (m *Manager) FinishCommit(t *Txn, lsn wal.LSN) error {
	if fn := m.commitDurability.Load(); fn != nil {
		if err := (*fn)(lsn + 1); err != nil {
			return err
		}
	} else if err := m.log.Flush(lsn + 1); err != nil {
		return err
	}
	m.finish(t)
	for _, f := range t.takeCommitted() {
		f()
	}
	return nil
}

// SetCommitDurability installs fn as the commit-durability wait: instead
// of forcing the local log through the commit record, FinishCommit calls
// fn(lsn+1) and acknowledges the commit when it returns nil. This is the
// async-commit replication mode — the installer must guarantee that a
// nil return means every record below upTo is recoverable somewhere (on
// at least one follower), and should fall back to a local Flush when no
// follower is reachable. Checkpoints, page eviction, and the WAL rule
// still force the local log directly and are unaffected. Pass nil to
// restore local-fsync commits.
func (m *Manager) SetCommitDurability(fn func(upTo wal.LSN) error) {
	if fn == nil {
		m.commitDurability.Store(nil)
		return
	}
	m.commitDurability.Store(&fn)
}

// clrContext is the TxnContext compensation records are logged under:
// it continues the aborting transaction's LSN chain but registers
// nothing for further undo, and flags itself as compensating so every
// record logged through it carries the redo-only marker.
type clrContext struct {
	id   uint64
	mu   sync.Mutex
	last wal.LSN
}

func (c *clrContext) ID() uint64 { return c.id }

func (c *clrContext) LastLSN() wal.LSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

func (c *clrContext) Record(rec *wal.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = rec.LSN
}

// Compensating implements access.CompensationContext.
func (c *clrContext) Compensating() bool { return true }

// Abort rolls the transaction back in reverse log order, then logs
// RecAbort and releases its locks.
//
// Records with logical undo descriptors (key- and record-level heap and
// index mutations) are undone by re-executing the inverse operation
// through the installed UndoHandler — under page latches, logging each
// step as a redo-only compensation. Restoring their before images
// instead would be unsound: concurrent transactions interleave freely
// on shared pages under per-key locking, and a stale image would wipe
// their committed bytes.
//
// Records without descriptors (system transactions — file-directory
// maintenance, index structure modifications — whose latches or locks
// exclude interleaving writers for their whole lifetime) are restored
// physically from before images, each restoration logged as a
// compensation record. Because RecAbort is appended only after every
// compensation, recovery can treat an aborted transaction like a
// committed no-op — replaying its updates and compensations in log
// order.
func (m *Manager) Abort(t *Txn) error { return m.abort(t, true) }

// abort implements Abort. latched selects whether physical restores
// re-acquire page latches (normal aborts) or write directly because the
// caller already holds every relevant latch exclusively (structure-
// modification rollback).
func (m *Manager) abort(t *Txn, latched bool) error {
	t.mu.Lock()
	if t.status != StatusActive {
		t.mu.Unlock()
		return ErrTxnDone
	}
	t.status = StatusAborted
	undo := append([]*wal.Record(nil), t.undo...)
	prev := t.lastLSN
	t.mu.Unlock()
	if prev == wal.ZeroLSN {
		// Logged nothing: nothing to roll back, nothing to close in the log.
		m.finish(t)
		return nil
	}

	// An error anywhere below returns without finish(): the transaction
	// stays registered and its locks stay held, deliberately. A failed
	// rollback leaves pages in doubt, so releasing its locks (or letting
	// Checkpoint believe the system is quiescent) would expose
	// half-rolled-back state; callers must treat the engine as failed
	// (the KV core poisons itself) or restart, at which point recovery
	// undoes the still-in-flight transaction from the log.
	prev, err := m.rollback(t.id, undo, prev, latched)
	if err != nil {
		return err
	}
	if _, err := m.log.Append(&wal.Record{Txn: t.id, Type: wal.RecAbort, PrevLSN: prev}); err != nil {
		return err
	}
	m.finish(t)
	return nil
}

// rollback undoes recs in reverse order on behalf of txnID, returning
// the LSN chain tail for the closing RecAbort.
func (m *Manager) rollback(txnID uint64, recs []*wal.Record, prev wal.LSN, latched bool) (wal.LSN, error) {
	clr := &clrContext{id: txnID}
	buf := make([]byte, storage.PageSize)
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		switch {
		case rec.RedoOnly():
			// A compensation from an earlier, interrupted rollback of
			// this transaction: never undone.
		case rec.LogicalUndo():
			h := m.undoHandler()
			if h == nil {
				return prev, fmt.Errorf("%w: record %d", ErrNoUndoHandler, rec.LSN)
			}
			clr.mu.Lock()
			clr.last = prev
			clr.mu.Unlock()
			if err := h.UndoRecord(clr, rec); err != nil {
				return prev, fmt.Errorf("txn: logical undo of record %d: %w", rec.LSN, err)
			}
			prev = clr.LastLSN()
		case m.store == nil:
			// Log-only mode: a plain redo-only compensation record that
			// writes the before bytes back over the same runs.
			lsn, err := m.log.Append(&wal.Record{
				Txn:     txnID,
				Type:    wal.RecUpdate,
				PageID:  rec.PageID,
				Offset:  rec.Offset,
				After:   rec.Before,
				Runs:    rec.Runs,
				PrevLSN: prev,
				Undo:    wal.UndoNone,
			})
			if err != nil {
				return prev, err
			}
			prev = lsn
		default:
			// Physical restore. The restore-and-log step runs under the
			// page's latch (atomic with respect to latched writers)
			// unless the caller already holds every relevant latch
			// exclusively — re-latching would then self-deadlock, and
			// the held latches provide the same exclusion.
			restore := func(p *storage.Page) error {
				copy(buf, p.Data)
				rec.UndoPhysical(p)
				// The compensation goes through the same fence-checked
				// append as forward mutations, so a rollback touching a
				// page for the first time after a checkpoint still logs
				// the full image torn-page rebuild depends on.
				cr, err := m.log.AppendPageUpdate(txnID, prev, rec.PageID, buf, p.Data, nil)
				if err != nil {
					return err
				}
				if cr != nil {
					prev = cr.LSN
					p.SetLSN(uint64(cr.LSN))
				}
				return nil
			}
			var err error
			if latched {
				err = storage.UpdatePageOn(m.store, rec.PageID, restore)
			} else {
				page := make([]byte, storage.PageSize)
				if err = m.store.ReadPage(rec.PageID, page); err == nil {
					p := storage.WrapPage(rec.PageID, page)
					if err = restore(p); err == nil {
						err = m.store.WritePage(rec.PageID, p.Data)
					}
				}
			}
			if err != nil {
				return prev, fmt.Errorf("txn: undo page %d: %w", rec.PageID, err)
			}
		}
	}
	return prev, nil
}

// UndoLosers rolls back the in-flight transactions a crash left behind
// whose records carry logical undo descriptors. Recovery's redo has
// already repeated history, so the pages hold exactly the state the
// losers left; each inverse operation runs through the normal latched
// access paths, logs a redo-only compensation, and the transaction is
// closed with RecAbort — a crash during this rollback therefore reruns
// it idempotently (inverses tolerate having already been applied). The
// log is forced at the end so the RecAborts are durable before traffic
// starts.
func (m *Manager) UndoLosers(losers []wal.LoserTxn) error {
	if len(losers) == 0 {
		return nil
	}
	for _, lt := range losers {
		prev := wal.ZeroLSN
		if n := len(lt.Records); n > 0 {
			prev = lt.Records[n-1].LSN
		}
		prev, err := m.rollback(lt.ID, lt.Records, prev, true)
		if err != nil {
			return fmt.Errorf("txn: rolling back crashed txn %d: %w", lt.ID, err)
		}
		if _, err := m.log.Append(&wal.Record{Txn: lt.ID, Type: wal.RecAbort, PrevLSN: prev}); err != nil {
			return err
		}
		m.EnsureIDsAbove(lt.ID)
	}
	return m.log.Flush(m.log.NextLSN())
}

// EnsureIDsAbove advances the transaction-id allocator past id. The
// opener calls it with the highest id the recovery scan saw: reusing a
// crashed transaction's id would let a later recovery misclassify the
// old incarnation's surviving records under the new incarnation's
// commit status.
func (m *Manager) EnsureIDsAbove(id uint64) {
	for {
		cur := m.next.Load()
		if id <= cur || m.next.CompareAndSwap(cur, id) {
			return
		}
	}
}

func (m *Manager) finish(t *Txn) {
	m.locks.ReleaseAll(t.id)
	m.mu.Lock()
	delete(m.active, t.id)
	m.mu.Unlock()
}

// dirtyTracker is the buffer-pool surface a fuzzy checkpoint needs:
// the dirty-page table with per-page recLSNs, and a targeted flush of
// exactly that snapshot. buffer.Manager implements it; a bare disk
// manager does not, and the checkpoint falls back to a full sync.
type dirtyTracker interface {
	DirtyPages() []storage.DirtyPageInfo
	FlushPages([]storage.PageID) error
}

// Checkpoint takes an ARIES-style fuzzy checkpoint — writers are never
// quiesced and in-flight transactions are fine:
//
//  1. The full-page-write fence advances to the current log tail (B).
//     From here on, the first mutation of any page whose image predates
//     B logs a full page image.
//  2. The active-transaction table is snapshotted, then the dirty-page
//     table (in that order: a transaction missing from the ATT has
//     finished, so its dirty pages are already visible to the DPT
//     gather or safely on disk). A record that is appended but whose
//     page is not yet marked dirty (the writer is between
//     AppendPageUpdate and Unpin) is covered by the ATT leg of the
//     minimum: its transaction cannot finish before the unpin, so it
//     is still registered and its first LSN bounds the record.
//  3. A checkpoint record carrying both tables is appended and forced.
//  4. The DPT snapshot's pages are flushed and the store synced —
//     concurrent traffic keeps running; pages dirtied after the
//     snapshot are the NEXT checkpoint's problem, their records lie at
//     or above B.
//  5. The recovery-begin LSN — min(B, ATT first LSNs) — and the
//     checkpoint LSN are persisted in the log manifest, and every
//     segment wholly below the recovery-begin LSN is deleted. The
//     classic ARIES formula also takes the minimum over the DPT
//     recLSNs, but step 4 flushed exactly that snapshot, so every
//     record the DPT leg would retain is provably durable on its page:
//     the term is vacuous here and dropping it lets truncation advance
//     a full checkpoint round further.
//
// Every record a future recovery could need (redo for pages not yet
// durable, undo for transactions then in flight) has an LSN at or above
// the recovery-begin LSN: a page dirtied by a pre-fence record that is
// not in the flushed DPT snapshot must have been unpinned after the DPT
// gather, so its transaction was still registered at the earlier ATT
// gather and its first LSN holds the bound. The scan is bounded and the
// truncated history is provably dead.
func (m *Manager) Checkpoint() (wal.LSN, error) {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	fence, att := m.log.BeginCheckpoint()

	var dpt []wal.CkptPage
	tracker, _ := m.store.(dirtyTracker)
	if tracker != nil {
		for _, d := range tracker.DirtyPages() {
			dpt = append(dpt, wal.CkptPage{Page: d.ID, RecLSN: wal.LSN(d.RecLSN)})
		}
	}

	lsn, err := m.log.Append(&wal.Record{
		Type:  wal.RecCheckpoint,
		After: wal.EncodeCheckpoint(wal.CheckpointData{Fence: fence, ATT: att, DPT: dpt, Clock: m.oracle.Clock()}),
	})
	if err != nil {
		return wal.ZeroLSN, err
	}
	if err := m.log.Flush(lsn + 1); err != nil {
		return wal.ZeroLSN, err
	}

	// Flush the snapshot, then persist the manifest. The flush is what
	// licenses truncation: once every page dirty at the snapshot is
	// durably on disk, no record below the recovery-begin LSN is needed
	// for redo, and any page a later crash tears was re-dirtied after
	// the fence — so a full image for it sits above the fence in the
	// retained log. Completions run under ckptMu, so a manifest can
	// never regress to an older checkpoint's recovery-begin.
	if tracker != nil {
		ids := make([]storage.PageID, len(dpt))
		for i, d := range dpt {
			ids[i] = d.Page
		}
		if err := tracker.FlushPages(ids); err != nil {
			return wal.ZeroLSN, err
		}
	} else if m.store != nil {
		if err := m.store.Sync(); err != nil {
			return wal.ZeroLSN, err
		}
	}
	recoveryBegin := fence
	for _, t := range att {
		if t.First < recoveryBegin {
			recoveryBegin = t.First
		}
	}
	if err := m.log.CompleteCheckpoint(lsn, recoveryBegin); err != nil {
		return wal.ZeroLSN, err
	}
	return lsn, nil
}

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}
