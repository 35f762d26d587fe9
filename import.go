package sbdms

// Bulk-ingest fast path: DB.Import loads a sorted batch by writing heap
// version cells page-at-a-time (one WAL full-page image per filled
// page), building the B+tree bottom-up into fresh pages, and atomically
// installing the new tree by swapping the meta root pointer under the
// exclusive meta latch — all inside ONE user transaction whose records
// are exclusively physical (nil undo over fresh pages plus the latched
// meta swap), so a crash mid-import classifies the transaction as a
// physical loser and recovery rolls the whole load back as one unit:
// before the root install zero keys are visible, after it all are,
// never a partial prefix.
//
// Visibility is one consistent cut: every imported version cell is
// written with its begin field already carrying a commit timestamp
// allocated at import start. The timestamp stays outstanding (invisible
// to every snapshot) until the commit record — which embeds it, via
// Txn.SetCommitTS, so recovery reseeds the oracle's clock above it — is
// durable. The cost is that the oracle's visibility frontier trails at
// ts-1 for the import's duration: concurrent commits are durable but
// not acknowledged until the import completes, because a commit is
// acknowledged only once every older timestamp has completed.
//
// The fast path requires an EMPTY tree (checked once cheaply up front
// and again under the meta latch at install). A non-empty tree — or a
// concurrent insert that wins the install race — falls back to the
// per-key PutBatch path in one atomic transaction, counted by
// ImportFallbacks.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/access"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Import batch validation errors, re-exported so callers can classify
// rejections with errors.Is at the public API.
var (
	// ErrImportDuplicate rejects a batch containing the same key twice.
	ErrImportDuplicate = ingest.ErrDuplicate
	// ErrImportKeyTooLarge rejects a key exceeding the index bound.
	ErrImportKeyTooLarge = ingest.ErrKeyTooLarge
	// ErrImportValueTooLarge rejects a record exceeding one heap page.
	ErrImportValueTooLarge = ingest.ErrValueTooLarge
)

// defaultImportChunkPages is how many bulk pages are written between
// cancellation checks and pacing flushes: 64 pages ≈ 256 KiB of new
// data per check keeps both the cancellation latency and the WAL's
// in-memory tail small against the multi-second scale of a large
// import.
const defaultImportChunkPages = 64

// importCheck enforces the engine's size limits on one pair, wrapping
// the ingest package's typed errors around the offending key.
func (kv *kvCore) importCheck(k string, v []byte) error {
	if index.BulkKeyLen(kv.key(k)) > index.MaxKeySize {
		return fmt.Errorf("%w: %q", ingest.ErrKeyTooLarge, k)
	}
	if len(access.EncodeVersion(access.VersionMeta{}, nil))+2+len(k)+4+len(v) > access.MaxRecordLen {
		return fmt.Errorf("%w: key %q (%d-byte value)", ingest.ErrValueTooLarge, k, len(v))
	}
	return nil
}

// ImportFallbacks returns how many imports could not use the fast path
// (non-empty tree, or a lost install race) and went through the per-key
// insert path instead.
func (kv *kvCore) ImportFallbacks() uint64 { return kv.importFallbacks.Load() }

// Import bulk-loads a batch of keys: validated and sorted up front
// (unsorted input is fine, duplicates and oversized records are typed
// errors), then loaded through the fast path when the tree is empty, or
// atomically via the per-key path otherwise. Either way the whole batch
// commits as one transaction at one commit timestamp: after a crash all
// of it is visible or none of it, and a context cancellation mid-import
// rolls everything back and leaves no partial state.
func (kv *kvCore) Import(ctx context.Context, keys []string, vals [][]byte) error {
	if err := kv.checkFailed(); err != nil {
		return err
	}
	b, err := ingest.Prepare(keys, vals, kv.importCheck)
	if err != nil {
		return err
	}
	if len(b.Keys) == 0 {
		return nil
	}
	if kv.idx.Len() > 0 {
		return kv.importFallback(ctx, b)
	}
	installed, err := kv.importFast(ctx, b)
	if err != nil || installed {
		return err
	}
	return kv.importFallback(ctx, b)
}

// importFallback loads the batch through the ordinary per-key insert
// path in ONE transaction: slower (per-key WAL records, tree descents,
// key locks) but correct against any live tree, and still atomic —
// which is what lets the cancellation and crash guarantees hold on both
// paths.
func (kv *kvCore) importFallback(ctx context.Context, b *ingest.Batch) error {
	kv.importFallbacks.Add(1)
	return kv.run(ctx, b.Keys, func(tx *txn.Txn) error {
		for i := range b.Keys {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := kv.putTx(tx, b.Keys[i], b.Vals[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// importFast runs the bulk load. installed=false with a nil error means
// the empty-tree precondition failed at install time (a concurrent
// insert won the race): everything was rolled back and freed, and the
// caller should fall back.
func (kv *kvCore) importFast(ctx context.Context, b *ingest.Batch) (installed bool, err error) {
	tx, err := kv.txns.Begin()
	if err != nil {
		return false, err
	}
	// One commit timestamp for the whole batch, allocated up front so
	// every cell is written with its final begin field — no per-version
	// stamping at commit. It stays outstanding (invisible) until the
	// commit is durable; SetCommitTS makes the commit record embed it
	// for recovery's clock reseed.
	ts := kv.oracle.AllocateCommitTS()
	tx.SetCommitTS(ts)

	var bulkPages []storage.PageID
	// rollback undoes a not-yet-installed import: the physical abort
	// restores every touched page (fresh pages back to zeros), then the
	// pages are freed and the timestamp released — nothing was ever
	// reachable, so the engine is exactly as before.
	rollback := func(cause error) (bool, error) {
		if aerr := kv.txns.Abort(tx); aerr != nil {
			return false, kv.poison(fmt.Errorf("sbdms: kv engine offline after failed import rollback: %w", aerr))
		}
		if len(bulkPages) > 0 {
			if ferr := kv.freePages(bulkPages); ferr != nil {
				return false, kv.poison(fmt.Errorf("sbdms: kv engine offline after failed import page free: %w", ferr))
			}
		}
		kv.oracle.Complete(ts)
		return false, cause
	}

	sinceCheck := 0
	paceChunk := func() error {
		sinceCheck++
		if sinceCheck < kv.importChunkPages {
			return nil
		}
		sinceCheck = 0
		if err := ctx.Err(); err != nil {
			return err
		}
		// Push the chunk toward the device so the WAL's in-memory tail
		// stays bounded and the commit force pays only the final chunk.
		return kv.log.Flush(kv.log.NextLSN())
	}

	recs := make([][]byte, len(b.Keys))
	for i := range b.Keys {
		recs[i] = access.EncodeVersion(access.VersionMeta{Begin: ts}, encodeKV(b.Keys[i], b.Vals[i]))
	}
	rids, heapPages, err := kv.heap.AppendPacked(tx, recs, func(storage.PageID, int) error { return paceChunk() })
	bulkPages = append(bulkPages, heapPages...)
	if err != nil {
		return rollback(err)
	}

	items := make([]index.BulkItem, len(rids))
	for i := range rids {
		items[i] = index.BulkItem{Key: kv.key(b.Keys[i]), RID: rids[i]}
	}
	root, idxPages, err := kv.idx.BulkBuild(tx, items, paceChunk)
	bulkPages = append(bulkPages, idxPages...)
	if err != nil {
		return rollback(err)
	}

	oldRoot, release, err := kv.idx.InstallRoot(tx, root, uint64(len(items)))
	if errors.Is(err, index.ErrTreeNotEmpty) {
		return rollback(nil) // lost the race; fall back
	}
	if err != nil {
		return rollback(err)
	}
	// The detached old root may only be freed once the commit can no
	// longer be rolled back — until then a rollback (or recovery)
	// restores the root pointer to it.
	tx.OnCommitted(func() {
		if ferr := kv.idx.FreePages([]storage.PageID{oldRoot}); ferr != nil {
			_ = kv.poison(fmt.Errorf("sbdms: kv engine offline after failed import root free: %w", ferr))
		}
	})
	// Commit WHILE holding the meta latch: the meta page's physical
	// undo is sound only while no other transaction can interleave a
	// record on it, and readers queued on the latch must not traverse
	// the new tree before its commit is durable.
	err = kv.txns.Commit(tx)
	release()
	if err != nil {
		// Durability in doubt: ts deliberately stays outstanding so no
		// snapshot ever reads the imported versions.
		return false, kv.poison(fmt.Errorf("sbdms: kv engine offline after failed import commit: %w", err))
	}
	kv.oracle.Complete(ts)
	return true, kv.oracle.WaitVisible(ts)
}
