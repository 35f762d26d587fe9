// Golden package for the errcheckdurability analyzer: results of WAL
// appends/flushes, commit/abort, lock acquisition, and buffer flushes
// must not be discarded.
package errcheckdurability

import (
	"context"

	sbdms "repro"
	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/index"
	"repro/internal/replicate"
	"repro/internal/txn"
	"repro/internal/wal"
)

// bareCalls: expression-statement discards of every guarded family.
func bareCalls(log *wal.Log, mgr *txn.Manager, lm *txn.LockManager, pool *buffer.Manager, tx *txn.Txn, rec *wal.Record) {
	log.Append(rec)                   // want `result of \(Log\)\.Append discarded`
	log.Flush(0)                      // want `result of \(Log\)\.Flush discarded`
	mgr.Commit(tx)                    // want `result of \(Manager\)\.Commit discarded`
	lm.TryAcquire(1, "r", txn.Shared) // want `result of \(LockManager\)\.TryAcquire discarded`
	pool.FlushAll()                   // want `result of \(Manager\)\.FlushAll discarded`
}

// deferAndGo: defer and go discards lose the outcome the same way.
func deferAndGo(ctx context.Context, mgr *txn.Manager, lm *txn.LockManager, tx *txn.Txn) {
	defer mgr.Abort(tx)                    // want `result of \(Manager\)\.Abort discarded`
	go lm.Acquire(ctx, 1, "r", txn.Shared) // want `result of \(LockManager\)\.Acquire discarded`
	go tx.Lock(ctx, "k", txn.Exclusive)    // want `result of \(Txn\)\.Lock discarded`
}

// blankAssigns: assigning every error/bool result to blank is a
// discard even when other results are kept.
func blankAssigns(log *wal.Log, mgr *txn.Manager, tx *txn.Txn, rec *wal.Record) wal.LSN {
	_, _ = log.Append(rec)         // want `result of \(Log\)\.Append discarded`
	lsn, _ := mgr.CommitAppend(tx) // want `result of \(Manager\)\.CommitAppend discarded`
	return lsn
}

// bulkIngest: the bulk-load entry points carry page-leak and
// publication outcomes — discarding any of them is flagged.
func bulkIngest(tx *txn.Txn, h *access.HeapFile, t *index.BTree, recs [][]byte, items []index.BulkItem) {
	h.AppendPacked(tx, recs, nil)     // want `result of \(HeapFile\)\.AppendPacked discarded`
	t.BulkBuild(tx, items, nil)       // want `result of \(BTree\)\.BulkBuild discarded`
	_, _, _ = t.InstallRoot(tx, 0, 1) // want `result of \(BTree\)\.InstallRoot discarded`
	t.FreePages(nil)                  // want `result of \(BTree\)\.FreePages discarded`
}

// replicationDiscards: the replication entry points carry the
// durability story behind an async-commit ack — a discarded result
// here acks a record no follower persisted or advances a frontier over
// unapplied effects.
func replicationDiscards(fw *replicate.FollowerWAL, rr *sbdms.ReplicaReader, rec *wal.Record, recs []*wal.Record) {
	_, _ = fw.Append(rec)  // want `result of \(FollowerWAL\)\.Append discarded`
	fw.Sync()              // want `result of \(FollowerWAL\)\.Sync discarded`
	rr.ApplyBatch(recs, 0) // want `result of \(ReplicaReader\)\.ApplyBatch discarded`
	defer rr.Flush()       // want `result of \(ReplicaReader\)\.Flush discarded`
}

// replicationChecked: the same calls with their outcomes handled.
func replicationChecked(fw *replicate.FollowerWAL, rr *sbdms.ReplicaReader, rec *wal.Record, recs []*wal.Record) error {
	if appended, err := fw.Append(rec); err != nil || !appended {
		return err
	}
	if err := fw.Sync(); err != nil {
		return err
	}
	if err := rr.ApplyBatch(recs, 0); err != nil {
		return err
	}
	return rr.Flush()
}

// checkedResults: keeping the error or bool in a named variable is the
// point of the rule — none of these are flagged.
func checkedResults(ctx context.Context, log *wal.Log, mgr *txn.Manager, lm *txn.LockManager, tx *txn.Txn, rec *wal.Record) error {
	if _, err := log.Append(rec); err != nil {
		return err
	}
	if err := log.Flush(0); err != nil {
		return err
	}
	if !lm.TryAcquire(1, "r", txn.Shared) {
		if err := lm.Acquire(ctx, 1, "r", txn.Shared); err != nil {
			return err
		}
	}
	return mgr.Commit(tx)
}

// suppressedDiscard: a justified suppression is honoured.
func suppressedDiscard(log *wal.Log) {
	//lint:ignore errcheckdurability the shutdown path flushes best-effort; the later fsync of the close decides durability
	log.Flush(0)
}
