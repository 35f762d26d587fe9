// Package sbdms is the public facade of the Service-Based Data
// Management System: it composes the storage, access, data and
// extension services of the paper's Figure 2 into a running database,
// at a selectable service granularity (monolithic, coarse, layered,
// fine) and over a selectable binding (in-process or TCP) — the exact
// experiment matrix the paper proposes as future work ("testing with
// different levels of service granularity will give us insights into
// the right tradeoff between service granularity and system
// performance", Section 5).
package sbdms

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/vacuum"
	"repro/internal/wal"
)

// KV errors.
var (
	// ErrKeyNotFound is returned by Get/Delete on absent keys.
	ErrKeyNotFound = errors.New("sbdms: key not found")
	// ErrBatchMismatch is returned by PutBatch when keys and values
	// have different lengths.
	ErrBatchMismatch = errors.New("sbdms: batch keys/values length mismatch")
	// ErrConflict is returned when an operation was chosen as a
	// deadlock victim and rolled back; the operation had no effect and
	// is safe to retry.
	ErrConflict = errors.New("sbdms: transaction conflict (deadlock victim, retry)")
)

// IsConflict reports whether err is a retryable transaction conflict.
func IsConflict(err error) bool { return isErr(err, ErrConflict) }

// IsKeyNotFound reports whether err is ErrKeyNotFound.
func IsKeyNotFound(err error) bool { return isErr(err, ErrKeyNotFound) }

// isErr matches target by value and, second, by its text: an error that
// crossed a network binding (gob) arrives flattened to a string.
func isErr(err, target error) bool {
	return err != nil && (errors.Is(err, target) || strings.Contains(err.Error(), target.Error()))
}

// kvCore is the native key-value engine: a heap file for values plus a
// unique B+tree index on keys. It is the workhorse behind the KV
// service at every granularity; what changes between profiles is how
// many service boundaries a call crosses before reaching it.
//
// Concurrency: there is no engine-wide lock. Writers run in parallel
// and serialise only per KEY, through strict two-phase exclusive locks
// from the shared lock manager, held until the transaction's outcome is
// durable; page-level consistency below comes from the B+tree's latch
// crabbing and the heap's page latches. Deadlock victims abort with
// ErrConflict and can simply be retried. Reads take no key locks at
// all: every Get and every scan reads one MVCC snapshot, an atomic cut
// of the key space that holds every write acknowledged before the read
// began (a commit is acknowledged only once every older one has
// completed) and none of a transaction still in flight.
//
// Every mutation runs under a transaction (one per operation, one per
// batch) so the heap, the B+tree and — via the file manager's system
// transactions — the page directory are all WAL-logged: a kill -9 at
// any point recovers to a consistent store with exactly the committed
// operations applied. Heap slots are never removed inline: deletes
// append a tombstone version and vacuum reclaims dead versions later,
// which is what keeps rollbacks of concurrent transactions from
// fighting over reused slots.
type kvCore struct {
	heap *access.HeapFile
	idx  *index.BTree
	txns *txn.Manager

	// oracle (commit timestamps, snapshot read points) is the
	// transaction manager's own, so recovery can reseed the one clock;
	// writers and vacuum passes meet in the manager's one lock table.
	oracle *txn.Oracle

	// dead counts committed tombstone heads: index entries whose key is
	// logically deleted but whose ghost entry anchors the version chain
	// until vacuum reclaims it. Len subtracts it from the entry count.
	dead      atomic.Int64
	deadStale bool            // persisted dead count untrusted; recount after loser undo
	metaPid   storage.PageID  // the index meta-pointer page (dead count lives at payload[8:16])
	pool      *buffer.Manager // for syncing the dead count on clean close

	poisoned atomic.Bool // fast-path flag for failed != nil
	failedMu sync.Mutex
	failed   error // fatal engine fault; all further operations refused

	// Bulk-ingest fast path (import.go). log is the WAL handle for
	// chunk pacing flushes; freePages is the file manager's logged free
	// path for abandoned bulk pages.
	log              *wal.Log
	freePages        func([]storage.PageID) error
	importChunkPages int // pages between cancellation checks/flushes; tests shrink it
	importFallbacks  atomic.Uint64
}

func newKVCore(fm *storage.FileManager, pool *buffer.Manager, txns *txn.Manager, log *wal.Log, name string, recount bool) (*kvCore, error) {
	heap, err := access.OpenHeap(name, fm, pool)
	if err != nil {
		return nil, err
	}
	var (
		idx           *index.BTree
		metaPid       storage.PageID
		persistedDead uint64
	)
	if metaFile := name + ".meta"; fm.Exists(metaFile) {
		idx, metaPid, persistedDead, err = openKVIndex(fm, pool, metaFile)
	} else {
		idx, metaPid, err = createKVIndex(fm, pool, txns, log, metaFile)
	}
	if err != nil {
		return nil, err
	}
	kv := &kvCore{
		heap: heap, idx: idx, txns: txns, oracle: txns.Oracle(), log: log,
		metaPid: metaPid, pool: pool,
		freePages: fm.FreePagesLogged, importChunkPages: defaultImportChunkPages,
	}
	idx.SetFreer(fm.FreePagesLogged)
	heap.SetLog(log)
	idx.SetLog(log)
	// Trees hold every touched page latch across their structure
	// modifications, so their rollback must not re-latch.
	idx.SetSystemTxns(txns.SystemHooksHeldLatches())
	// Per-operation entry counts are not logged (they would serialise
	// every writer on the metadata page). Trust the persisted count only
	// when the previous shutdown synced it (clean flag, consumed here);
	// otherwise — or when recovery repaired anything — rebuild it from
	// the leaf chain. The dead (tombstone-head) count rides the same
	// gate, except that its rebuild must wait for loser rollback
	// (recountDead, called by the opener) because tombstone-ness of a
	// head is only decided once in-flight deletes are rolled back.
	clean, err := idx.ConsumeCleanFlag()
	if err != nil {
		return nil, err
	}
	if recount || !clean {
		if err := idx.Recount(); err != nil {
			return nil, err
		}
		kv.deadStale = true
	} else {
		kv.dead.Store(int64(persistedDead))
	}
	return kv, nil
}

// Close persists the in-memory index metadata (entry count) and the
// tombstone-head count so a clean reopen needs no recount.
func (kv *kvCore) Close() error {
	if kv.poisoned.Load() {
		return nil
	}
	if err := kv.idx.SyncMeta(); err != nil {
		return err
	}
	return kv.syncDead()
}

// syncDead writes the dead (tombstone-head) count next to the index
// meta pointer. Like the index entry count it is written unlogged and
// trusted only behind the index clean flag.
func (kv *kvCore) syncDead() error {
	if kv.metaPid == storage.InvalidPageID {
		return nil
	}
	return kv.pool.UpdatePage(kv.metaPid, func(p *storage.Page) error {
		binary.LittleEndian.PutUint64(p.Payload()[8:], uint64(kv.dead.Load()))
		return nil
	})
}

// recountDead rebuilds the tombstone-head count from the live index.
// The opener calls it after loser rollback whenever the persisted count
// could not be trusted (unclean shutdown, recovery repairs): only then
// is every head's tombstone flag settled.
func (kv *kvCore) recountDead() error {
	if !kv.deadStale {
		return nil
	}
	var dead int64
	err := kv.idx.Range(kv.key(""), nil, func(key []byte, rid access.RID) error {
		cell, err := kv.heap.Get(rid)
		if err != nil {
			if errors.Is(err, access.ErrNoSlot) {
				return nil
			}
			return fmt.Errorf("entry %q rid {%d %d}: %w", key, rid.Page, rid.Slot, err)
		}
		meta, _, err := access.DecodeVersion(cell)
		if err != nil {
			return fmt.Errorf("entry %q rid {%d %d}: %w", key, rid.Page, rid.Slot, err)
		}
		if meta.Committed() && meta.Tombstone() {
			dead++
		}
		return nil
	})
	if err != nil {
		return err
	}
	kv.dead.Store(dead)
	kv.deadStale = false
	return nil
}

// openReplicaKV opens an existing keyspace for the lock-free snapshot
// reads alone (getSnapshotAt, scanKeysSnapshotAt): a follower's view,
// which applies shipped records instead of running transactions, so it
// has no transaction manager or log and writes nothing here.
func openReplicaKV(fm *storage.FileManager, pool *buffer.Manager, name string) (*kvCore, error) {
	heap, err := access.OpenHeap(name, fm, pool)
	if err != nil {
		return nil, err
	}
	idx, _, _, err := openKVIndex(fm, pool, name+".meta")
	if err != nil {
		return nil, err
	}
	return &kvCore{heap: heap, idx: idx}, nil
}

// openKVIndex opens the KV B+tree through the one-page file that
// persists its metadata page id across restarts. The pointer page also
// carries the tombstone-head count at payload[8:16] (synced on clean
// close, trusted only behind the index clean flag).
func openKVIndex(fm *storage.FileManager, pool *buffer.Manager, metaFile string) (*index.BTree, storage.PageID, uint64, error) {
	pid, err := fm.FirstPage(metaFile)
	if err != nil {
		return nil, 0, 0, err
	}
	f, err := pool.Pin(pid)
	if err != nil {
		return nil, 0, 0, err
	}
	metaID := storage.PageID(binary.LittleEndian.Uint64(f.Page().Payload()))
	dead := binary.LittleEndian.Uint64(f.Page().Payload()[8:])
	if err := pool.Unpin(pid, false); err != nil {
		return nil, 0, 0, err
	}
	idx, err := index.Open(pool, metaID)
	return idx, pid, dead, err
}

// createKVIndex creates the KV B+tree and the pointer file openKVIndex
// finds it through.
func createKVIndex(fm *storage.FileManager, pool *buffer.Manager, txns *txn.Manager, log *wal.Log, metaFile string) (*index.BTree, storage.PageID, error) {
	idx, metaID, err := index.Create(pool, true)
	if err != nil {
		return nil, 0, err
	}
	if err := fm.Create(metaFile); err != nil {
		return nil, 0, err
	}
	pid, err := fm.AppendPage(metaFile, storage.PageTypeRaw)
	if err != nil {
		return nil, 0, err
	}
	// The pointer write must be WAL-logged: the directory entry for
	// metaFile is logged by the file manager's system transaction, so
	// after a crash recovery recreates the file — but a raw store here
	// would leave the page's only meaningful bytes with no redo record,
	// and no later mutation ever logs this page again. A short system
	// transaction gives the write a before/after image of its own.
	write := func(p *storage.Page) error {
		binary.LittleEndian.PutUint64(p.Payload(), uint64(metaID))
		return nil
	}
	sys := txns.SystemHooks()
	stx, err := sys.Begin()
	if err != nil {
		return nil, 0, err
	}
	if err := access.MutatePage(pool, log, stx, pid, write); err != nil {
		_ = sys.Abort(stx)
		return nil, 0, err
	}
	if err := sys.Commit(stx); err != nil {
		return nil, 0, err
	}
	return idx, pid, nil
}

func (kv *kvCore) key(k string) []byte { return access.EncodeKey(access.NewString(k)) }

// kvRes names a key's lock-manager resource. Only writers (and the
// vacuum, which is one) lock keys.
func kvRes(k string) string { return "kv/" + k }

// stringKeyTag is the type byte access.EncodeKey prefixes string keys
// with; decodeKeyBytes uses it to recover the user key from an index
// entry without a heap read.
var stringKeyTag = access.EncodeKey(access.NewString(""))[0]

// decodeKeyBytes recovers the user key string from its order-preserving
// index encoding.
func decodeKeyBytes(enc []byte) (string, error) {
	if len(enc) < 1 || enc[0] != stringKeyTag {
		return "", fmt.Errorf("%w: index key with tag %v", errBadKVRecord, enc)
	}
	return string(enc[1:]), nil
}

// --- record codec -------------------------------------------------------
//
// A KV heap cell is a version: a 20-byte header (access.VersionMeta —
// begin timestamp, predecessor RID, tombstone flag) followed by the
// self-delimiting record layout (u16 klen | key | u32 vlen | value).
// Writers never overwrite a committed version: a put appends a new
// version whose header links the previous head, a delete appends a
// bare tombstone header, and the index entry is repointed to the new
// head in place. The chain runs newest→oldest, begin timestamps
// non-increasing along it, which is what lets snapshot readers walk to
// the newest version at or below their read point without any locks.

func encodeKV(k string, v []byte) []byte {
	out := make([]byte, 2+len(k)+4+len(v))
	binary.LittleEndian.PutUint16(out, uint16(len(k)))
	copy(out[2:], k)
	binary.LittleEndian.PutUint32(out[2+len(k):], uint32(len(v)))
	copy(out[2+len(k)+4:], v)
	return out
}

var errBadKVRecord = errors.New("sbdms: corrupt kv record")

func decodeKV(cell []byte) (string, []byte, error) {
	if len(cell) < 6 {
		return "", nil, errBadKVRecord
	}
	klen := int(binary.LittleEndian.Uint16(cell))
	if 2+klen+4 > len(cell) {
		return "", nil, errBadKVRecord
	}
	k := string(cell[2 : 2+klen])
	vlen := int(binary.LittleEndian.Uint32(cell[2+klen:]))
	if 2+klen+4+vlen > len(cell) {
		return "", nil, errBadKVRecord
	}
	return k, cell[2+klen+4 : 2+klen+4+vlen], nil
}

// registerStamp defers stamping rid's begin field until tx's commit
// timestamp is known. The stamps run inside commit, WAL-logged with
// field undo, each rewriting one new version's begin field — which
// makes every version of the transaction visible at the same point in
// commit order.
func (kv *kvCore) registerStamp(tx *txn.Txn, rid access.RID) {
	tx.OnCommitTS(func(ts uint64) error {
		return kv.heap.StampBytes(tx, rid, access.VersionBeginOff, access.EncodeBeginTS(ts))
	})
}

// --- failure guard ------------------------------------------------------

func (kv *kvCore) checkFailed() error {
	if !kv.poisoned.Load() {
		return nil
	}
	kv.failedMu.Lock()
	defer kv.failedMu.Unlock()
	return kv.failed
}

// poison takes the engine offline. A rollback or commit that itself
// fails (the device died mid-way) leaves the pool holding pages with
// unrecovered uncommitted bytes, and further commits would legitimise
// them in the log. Refusing all further operations keeps the WAL
// trustworthy, so a restart recovers exactly the committed state. The
// oracle is halted too: a commit left in doubt keeps its timestamp
// outstanding, and no scan may wait for it.
func (kv *kvCore) poison(err error) error {
	kv.failedMu.Lock()
	defer kv.failedMu.Unlock()
	if kv.failed == nil {
		kv.failed = err
		kv.poisoned.Store(true)
		kv.oracle.Halt()
	}
	return kv.failed
}

// conflictWrap converts deadlock-victim errors into the retryable
// public form.
func conflictWrap(err error) error {
	if errors.Is(err, txn.ErrDeadlock) {
		return fmt.Errorf("%w: %v", ErrConflict, err)
	}
	return err
}

// sortedUnique returns keys sorted and deduplicated: run takes its
// exclusive key locks in that order, so concurrent multi-key batches
// cannot deadlock each other (singles are unaffected).
func sortedUnique(keys []string) []string {
	if len(keys) <= 1 {
		return keys
	}
	out := append([]string(nil), keys...)
	sort.Strings(out)
	n := 0
	for i, k := range out {
		if i == 0 || out[n-1] != k {
			out[n] = k
			n++
		}
	}
	return out[:n]
}

// run executes op inside a fresh transaction holding exclusive locks on
// keys. A failed op is rolled back logically (inverse operations under
// page latches); a successful op commits through the group-commit path
// — concurrent committers coalesce into one log sync. Locks are
// released only once the outcome is durable (strict 2PL). op's
// transaction is also the collector of its version stamps, which run
// inside commit, after the commit timestamp is allocated, while undo is
// still possible.
func (kv *kvCore) run(ctx context.Context, keys []string, op func(tx *txn.Txn) error) error {
	if err := kv.checkFailed(); err != nil {
		return err
	}
	tx, err := kv.txns.Begin()
	if err != nil {
		return err
	}
	abort := func(cause error) error {
		if aerr := kv.txns.Abort(tx); aerr != nil {
			perr := kv.poison(fmt.Errorf("sbdms: kv engine offline after failed rollback: %w", aerr))
			return fmt.Errorf("%w (rollback: %v)", cause, perr)
		}
		return cause
	}
	for _, k := range sortedUnique(keys) {
		if err := tx.Lock(ctx, kvRes(k), txn.Exclusive); err != nil {
			return abort(conflictWrap(err))
		}
	}
	if err := op(tx); err != nil {
		return abort(err)
	}
	if err := kv.txns.Commit(tx); err != nil {
		return kv.poison(fmt.Errorf("sbdms: kv engine offline after failed commit: %w", err))
	}
	return nil
}

// putTx stores (or replaces) a key under tx; the caller holds the key's
// exclusive lock.
//
// A put never overwrites: it appends a new version cell whose begin
// field carries the uncommitted mark (readers skip it) and whose prev
// field links the old head, then repoints the key's index entry to the
// new cell in place. The begin field is stamped with the commit
// timestamp when tx commits. Only a brand-new key inserts an index
// entry; replacing the head of an existing entry (including a tombstone
// ghost) never changes the key space.
func (kv *kvCore) putTx(tx *txn.Txn, k string, v []byte) error {
	owner := tx.ID()
	rec := encodeKV(k, v)
	rids, err := kv.idx.Search(kv.key(k))
	if err != nil {
		return err
	}
	if len(rids) == 0 {
		rid, err := kv.heap.Insert(tx, access.EncodeVersion(access.VersionMeta{Begin: access.VersionMark | owner}, rec))
		if err != nil {
			return err
		}
		if err := kv.idx.InsertTx(tx, kv.key(k), rid); err != nil {
			return err
		}
		kv.registerStamp(tx, rid)
		return nil
	}
	old := rids[0]
	oldCell, err := kv.heap.Get(old)
	if err != nil {
		return err
	}
	oldMeta, _, err := access.DecodeVersion(oldCell)
	if err != nil {
		return err
	}
	nrid, err := kv.heap.Insert(tx, access.EncodeVersion(access.VersionMeta{Begin: access.VersionMark | owner, Prev: old}, rec))
	if err != nil {
		return err
	}
	ok, err := kv.idx.RepointTx(tx, kv.key(k), old, nrid)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: index entry for %q vanished under its exclusive lock", errBadKVRecord, k)
	}
	kv.registerStamp(tx, nrid)
	if oldMeta.Tombstone() {
		// Resurrecting a deleted key: its ghost entry goes live again.
		// (An uncommitted tombstone head is necessarily our own — the
		// key's exclusive lock rules out other writers — so the paired
		// dead++ of that delete nets out at commit.)
		tx.OnCommitted(func() { kv.dead.Add(-1) })
	}
	return nil
}

// deleteTx removes a key under tx; the caller holds the key's exclusive
// lock.
//
// A delete appends a bare tombstone version linking the old head and
// repoints the index entry to it — the entry itself stays, anchoring
// the version chain for snapshot readers. Vacuum removes the entry once
// no snapshot can see any version of the key.
func (kv *kvCore) deleteTx(tx *txn.Txn, k string) error {
	rids, err := kv.idx.Search(kv.key(k))
	if err != nil {
		return err
	}
	if len(rids) == 0 {
		return fmt.Errorf("%w: %q", ErrKeyNotFound, k)
	}
	old := rids[0]
	oldCell, err := kv.heap.Get(old)
	if err != nil {
		return err
	}
	oldMeta, _, err := access.DecodeVersion(oldCell)
	if err != nil {
		return err
	}
	if oldMeta.Tombstone() {
		// Already deleted (a committed ghost, or our own earlier delete
		// in this batch — the exclusive lock rules out anyone else's).
		return fmt.Errorf("%w: %q", ErrKeyNotFound, k)
	}
	nrid, err := kv.heap.Insert(tx, access.EncodeVersion(access.VersionMeta{
		Begin: access.VersionMark | tx.ID(),
		Prev:  old,
		Flags: access.VersionTombstone,
	}, nil))
	if err != nil {
		return err
	}
	ok, err := kv.idx.RepointTx(tx, kv.key(k), old, nrid)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: index entry for %q vanished under its exclusive lock", errBadKVRecord, k)
	}
	kv.registerStamp(tx, nrid)
	tx.OnCommitted(func() { kv.dead.Add(1) })
	return nil
}

// Put stores (or replaces) a key: when it returns nil the write is
// durable.
func (kv *kvCore) Put(ctx context.Context, k string, v []byte) error {
	return kv.run(ctx, []string{k}, func(tx *txn.Txn) error {
		return kv.putTx(tx, k, v)
	})
}

// PutBatch stores several keys under one transaction: one WAL force
// for the whole batch, and after a crash either all of the batch's
// keys are recovered or none; a mid-batch failure rolls the earlier
// keys back. Locks are acquired in sorted key order, so concurrent
// batches cannot deadlock each other.
func (kv *kvCore) PutBatch(ctx context.Context, keys []string, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("%w: %d keys, %d values", ErrBatchMismatch, len(keys), len(vals))
	}
	return kv.run(ctx, keys, func(tx *txn.Txn) error {
		for i := range keys {
			if err := kv.putTx(tx, keys[i], vals[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// Get is GetSnapshot: a lock-free read of the newest version visible
// at a snapshot taken now, which holds every write acknowledged before
// the call. On the engine the two rows read alike; they differ only in
// routing (kvops.go), where get is served by a shard leader alone.
func (kv *kvCore) Get(ctx context.Context, k string) ([]byte, error) {
	return kv.GetSnapshot(ctx, k)
}

// Delete removes a key. A miss is ErrKeyNotFound and, like any
// transaction that wrote nothing, leaves no record in the log.
func (kv *kvCore) Delete(ctx context.Context, k string) error {
	return kv.run(ctx, []string{k}, func(tx *txn.Txn) error {
		return kv.deleteTx(tx, k)
	})
}

// Scan is ScanKeysSnapshot, as Get is GetSnapshot: an atomic,
// phantom-free cut holding every write acknowledged before the call,
// which never waits, never blocks a writer and never returns
// ErrConflict. The rows differ only in routing.
func (kv *kvCore) Scan(ctx context.Context, from string, n int) ([]string, error) {
	return kv.ScanKeysSnapshot(ctx, from, n)
}

// Len returns the number of live keys: index entries minus committed
// tombstone ghosts. A poisoned engine refuses — the in-memory count is
// no more trustworthy than the pages then.
func (kv *kvCore) Len(context.Context) (uint64, error) {
	if err := kv.checkFailed(); err != nil {
		return 0, err
	}
	n := kv.idx.Len()
	if d := kv.dead.Load(); d > 0 {
		if uint64(d) >= n {
			return 0, nil
		}
		n -= uint64(d)
	}
	return n, nil
}

// --- snapshot reads -----------------------------------------------------

// maxSnapshotRetries bounds the head-rereads a snapshot point read pays
// when vacuum purges and reuses the slot it just resolved. Each retry
// re-searches the index; the version visible to the snapshot is inside
// the vacuum horizon and can never itself be reclaimed, so the loop
// only spins while OTHER keys churn through the same slot.
const maxSnapshotRetries = 64

// GetSnapshot fetches the value of k that was current at the newest
// consistent read point, without taking any key locks: the read walks
// the B+tree under shared latches, follows the key's version chain to
// the newest version visible at the snapshot, and never blocks on (or
// blocks) concurrent writers. Uncommitted versions are invisible; a
// visible tombstone is ErrKeyNotFound. A poisoned engine refuses reads
// too: the pool may hold half-rolled-back bytes a failed rollback left
// behind.
func (kv *kvCore) GetSnapshot(ctx context.Context, k string) ([]byte, error) {
	if err := kv.checkFailed(); err != nil {
		return nil, err
	}
	// Register the snapshot BEFORE resolving the key: from here on
	// vacuum's horizon cannot pass readTS, so every version this read
	// could return is pinned in place.
	snap := kv.oracle.Snapshot()
	defer snap.Close()
	return kv.getSnapshotAt(ctx, k, snap.ReadTS)
}

// getSnapshotAt is GetSnapshot at an explicit read timestamp. The
// caller owns the consistency of readTS: either a registered oracle
// snapshot (GetSnapshot) or a replication frontier on a follower, where
// every version at or below readTS has been applied and vacuum never
// runs.
func (kv *kvCore) getSnapshotAt(ctx context.Context, k string, readTS uint64) ([]byte, error) {
	for i := 0; i < maxSnapshotRetries; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rids, err := kv.idx.Search(kv.key(k))
		if err != nil {
			return nil, err
		}
		if len(rids) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, k)
		}
		v, ok, retry, err := kv.readVisible(k, rids[0], readTS)
		if err != nil {
			return nil, err
		}
		if retry {
			continue // slot vacuumed+reused under us: re-resolve the head
		}
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, k)
		}
		return v, nil
	}
	return nil, fmt.Errorf("sbdms: snapshot read of %q did not stabilise", k)
}

// ScanKeysSnapshot returns up to n keys from (inclusive) in order, as
// of one consistent read point: every key decision — present, absent,
// deleted — is made against the same snapshot timestamp, so the result
// is an atomic cut of the key space no matter how many transactions
// commit mid-scan. Like GetSnapshot it takes no key locks and cannot
// conflict with writers.
func (kv *kvCore) ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error) {
	if err := kv.checkFailed(); err != nil {
		return nil, err
	}
	snap := kv.oracle.Snapshot()
	defer snap.Close()
	return kv.scanKeysSnapshotAt(ctx, from, n, snap.ReadTS)
}

// scanKeysSnapshotAt is ScanKeysSnapshot at an explicit read timestamp
// (see getSnapshotAt for who may supply one).
func (kv *kvCore) scanKeysSnapshotAt(ctx context.Context, from string, n int, readTS uint64) ([]string, error) {
	var out []string
	err := kv.idx.Range(kv.key(from), nil, func(key []byte, rid access.RID) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(out) >= n {
			return errStopScan
		}
		k, err := decodeKeyBytes(key)
		if err != nil {
			return err
		}
		// A retry outcome here means the entry's whole chain was
		// reclaimed (the key was dead at the horizon ≤ readTS) and the
		// slot reused — absent at this snapshot, so skipping is exact.
		_, ok, _, err := kv.readVisible(k, rid, readTS)
		if err != nil {
			return err
		}
		if ok {
			out = append(out, k)
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return nil, err
	}
	return out, nil
}

// readVisible walks the version chain from rid to the newest version
// visible at readTS. ok reports a live visible version (val is a
// copy); retry reports that the chain under this rid was reclaimed by
// vacuum and the caller must re-resolve the key's head (or, for scans,
// may treat the key as absent — see the callers for why both are
// exact).
func (kv *kvCore) readVisible(k string, rid access.RID, readTS uint64) (val []byte, ok, retry bool, err error) {
	for {
		cell, err := kv.heap.Get(rid)
		if err != nil {
			if errors.Is(err, access.ErrNoSlot) {
				return nil, false, true, nil
			}
			return nil, false, false, err
		}
		meta, rest, err := access.DecodeVersion(cell)
		if err != nil {
			return nil, false, true, nil // reused slot: not a version of this key any more
		}
		if !meta.VisibleAt(readTS) {
			if !meta.HasPrev() {
				// Every version is younger than the snapshot (or still
				// uncommitted): the key did not exist at readTS.
				return nil, false, false, nil
			}
			rid = meta.Prev
			continue
		}
		if meta.Tombstone() {
			return nil, false, false, nil
		}
		gk, v, err := decodeKV(rest)
		if err != nil || gk != k {
			return nil, false, true, nil // slot reuse raced the read
		}
		return append([]byte(nil), v...), true, false, nil
	}
}

var errStopScan = errors.New("sbdms: stop scan")

// --- vacuum ------------------------------------------------------------

// vacuumConfig wires the version scavenger to this keyspace: same
// heap, index, lock naming and transaction manager (lock table, oracle)
// the writers use, so the vacuum's per-key X locks and horizon
// computation compose with the engine's own protocols.
func (kv *kvCore) vacuumConfig() vacuum.Config {
	return vacuum.Config{
		Heap:  kv.heap,
		Index: kv.idx,
		Txns:  kv.txns,
		Resource: func(key []byte) (string, error) {
			k, err := decodeKeyBytes(key)
			if err != nil {
				return "", err
			}
			return kvRes(k), nil
		},
		ScanFrom: kv.key(""),
		// A removed key takes its committed tombstone head with it:
		// the ghost counter must drop with the index entry or Len
		// double-subtracts.
		OnKeyRemoved: func() { kv.dead.Add(-1) },
	}
}

// Vacuum runs one reclamation pass over the keyspace.
func (kv *kvCore) Vacuum() (vacuum.Stats, error) {
	if err := kv.checkFailed(); err != nil {
		return vacuum.Stats{}, err
	}
	return vacuum.Run(kv.vacuumConfig())
}
