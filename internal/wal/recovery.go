package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/storage"
)

// LoserTxn is one in-flight transaction whose records carry logical
// undo descriptors. Recover cannot roll it back itself — the inverse
// operations live in the access layer — so it returns the records (in
// log order) for the transaction manager to undo through the registered
// undo handler once the access methods are open.
type LoserTxn struct {
	ID      uint64
	Records []*Record // update records in log order
}

// RecoveryStats reports what recovery did.
type RecoveryStats struct {
	Scanned   int
	Redone    int
	Undone    int
	Rebuilt   int // pages reconstructed from scratch (torn or lost writes)
	Committed int
	InFlight  int // transactions rolled back
	ScanFrom  LSN // where analysis started (the recovery-begin LSN)
	// FreeImages counts durable records of finished transactions that
	// mark a page free (a free-typed image starting at byte 0). Their
	// presence means the allocator's eager free-list links may diverge
	// from the logged markings, so the opener should rebuild the free
	// list even when redo itself had nothing to repair.
	FreeImages int
	// Losers holds the in-flight transactions that logged logical undo
	// descriptors. Their updates were redone (repeating history); the
	// caller must finish the rollback with Manager.UndoLosers after the
	// heap/index layer is available.
	Losers []LoserTxn
	// MaxTxnID is the highest transaction id the scan saw. The opener
	// seeds the transaction-id allocator above it so crashed ids are
	// never reused (a reuse would let a later recovery misclassify the
	// old incarnation's records under the new incarnation's status).
	MaxTxnID uint64
	// MaxCommitTS is the highest commit timestamp the scan saw — from
	// commit records carrying a stamped timestamp and from checkpoint
	// records' oracle clock (which covers commits the checkpoint
	// licensed truncating out of the scan range). The opener seeds the
	// timestamp oracle above it so no version on disk can outrank a
	// post-recovery commit.
	MaxCommitTS uint64
}

// Changed reports whether recovery had to repair anything — callers use
// it to decide whether crash-only follow-up work (free-list rebuild) is
// warranted.
func (st RecoveryStats) Changed() bool {
	return st.Redone > 0 || st.Undone > 0 || st.Rebuilt > 0 || len(st.Losers) > 0
}

// pageExtender is implemented by stores (the disk manager) that can
// extend themselves so a page id becomes valid. Recovery needs it when
// a crash lost the allocation metadata for pages the WAL references.
type pageExtender interface {
	EnsureAllocated(storage.PageID) error
}

// readPageForRecovery reads a page, tolerating crash damage: a page id
// beyond the store's allocation metadata extends the store, and a torn
// or never-completed page write (checksum mismatch, short device) is
// returned as a zeroed page. The zeroed page is sound because of the
// full-page-write discipline: the first record for any page inside the
// replayed range is a full page image — either the page's first-ever
// record (prior image LSN 0), or the full image AppendPageUpdate logs
// on the page's first mutation after each checkpoint's fence. The
// recovery-begin LSN never exceeds a fence, so replaying the range in
// log order rebuilds the page completely even after older segments
// were truncated; diff records that precede the page's full image land
// on garbage and are then overwritten by it.
func readPageForRecovery(store storage.PageStore, id storage.PageID, buf []byte, st *RecoveryStats) error {
	err := store.ReadPage(id, buf)
	if err == nil {
		return nil
	}
	if errors.Is(err, storage.ErrOutOfRange) {
		if ext, ok := store.(pageExtender); ok {
			if eerr := ext.EnsureAllocated(id); eerr != nil {
				return eerr
			}
			if err = store.ReadPage(id, buf); err == nil {
				return nil
			}
		}
	}
	if errors.Is(err, storage.ErrChecksum) || errors.Is(err, io.EOF) {
		for i := range buf {
			buf[i] = 0
		}
		st.Rebuilt++
		return nil
	}
	return err
}

// Recover brings a page store to a consistent state after a crash:
//
//  1. Analysis: a scan from the manifest's recovery-begin LSN (the
//     minimum of the last checkpoint's fence, its dirty-page recLSNs
//     and the first LSN of its oldest in-flight transaction — so every
//     record that could still matter is inside the scan) classifies
//     transactions as committed, aborted, or in-flight, and collects
//     update records.
//  2. Redo repeats history: EVERY update is reapplied in log order
//     wherever the page LSN shows the write never reached the page
//     (page.LSN < record.LSN) — including updates of in-flight losers,
//     so that the logical undo in step 3 operates on exactly the page
//     state the crashed transactions left behind. An aborted
//     transaction is safe to replay because the transaction manager
//     appends RecAbort only after logging a compensation record for
//     every undone update — replaying updates then compensations in
//     order nets out to the rollback, without re-applying stale before
//     images over bytes later transactions may have rewritten.
//  3. Undo: in-flight transactions whose records are all physically
//     undoable (system transactions: file-directory maintenance, index
//     structure modifications — their page records never interleave
//     with other transactions') are reverted here in reverse log order
//     using before images. Transactions with logical-undo records
//     (per-key heap and index operations, which DO interleave on
//     shared pages under fine-grained locking) are returned in
//     Losers for Manager.UndoLosers to roll back through the access
//     methods once they are open — each inverse operation is logged as
//     a redo-only compensation and the transaction closed with a
//     RecAbort, so a crash during recovery reruns to the same state.
//
// Pages touched by undo/redo are stamped with the record's LSN so that
// recovery is idempotent: running it twice is a no-op.
func Recover(l *Log, store storage.PageStore) (RecoveryStats, error) {
	var st RecoveryStats
	st.ScanFrom = l.RecoveryBegin()
	status := make(map[uint64]RecType) // txn -> final state seen
	var updates []*Record
	err := l.Iterate(st.ScanFrom, func(rec *Record) error {
		st.Scanned++
		if rec.Txn > st.MaxTxnID {
			st.MaxTxnID = rec.Txn
		}
		switch rec.Type {
		case RecBegin:
			status[rec.Txn] = RecBegin
		case RecCommit:
			status[rec.Txn] = RecCommit
			if len(rec.After) >= 8 {
				if ts := binary.LittleEndian.Uint64(rec.After); ts > st.MaxCommitTS {
					st.MaxCommitTS = ts
				}
			}
		case RecAbort:
			status[rec.Txn] = RecAbort
		case RecUpdate:
			updates = append(updates, rec)
			if _, ok := status[rec.Txn]; !ok {
				status[rec.Txn] = RecBegin
			}
		case RecCheckpoint:
			if d, derr := DecodeCheckpoint(rec.After); derr == nil && d.Clock > st.MaxCommitTS {
				st.MaxCommitTS = d.Clock
			}
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("wal: analysis: %w", err)
	}
	logical := make(map[uint64]bool) // loser txns needing logical undo
	for _, rec := range updates {
		if status[rec.Txn] == RecBegin && rec.LogicalUndo() {
			logical[rec.Txn] = true
		}
	}
	for _, s := range status {
		switch s {
		case RecCommit:
			st.Committed++
		case RecBegin:
			st.InFlight++
		}
	}

	buf := make([]byte, storage.PageSize)

	// Redo in log order, repeating history for every transaction.
	for _, rec := range updates {
		if err := readPageForRecovery(store, rec.PageID, buf, &st); err != nil {
			return st, fmt.Errorf("wal: redo read page %d: %w", rec.PageID, err)
		}
		p := storage.WrapPage(rec.PageID, buf)
		if p.LSN() >= uint64(rec.LSN) {
			continue // already on the page
		}
		if s := status[rec.Txn]; (s == RecCommit || s == RecAbort) &&
			rec.Offset == 0 && len(rec.After) > 0 && storage.PageType(rec.After[0]) == storage.PageTypeFree {
			// The first run starts at the page's type byte and sets it
			// to free. A free marking the crash actually lost had to
			// be replayed; only then is the allocator's list suspect
			// (counted here, after the already-applied check, so clean
			// reopens never pay the free-list rebuild).
			st.FreeImages++
		}
		rec.Redo(p)
		if err := store.WritePage(rec.PageID, p.Data); err != nil {
			return st, fmt.Errorf("wal: redo: %w", err)
		}
		st.Redone++
	}

	// Physically undo in-flight losers without logical records, in
	// reverse log order.
	losers := updates[:0:0]
	for _, rec := range updates {
		if status[rec.Txn] == RecBegin && !logical[rec.Txn] {
			losers = append(losers, rec)
		}
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i].LSN > losers[j].LSN })
	for _, rec := range losers {
		if rec.RedoOnly() {
			// Never undone — not even physically. A redo-only record is
			// either a compensation (its effect IS an undo) or a
			// content-preserving reorganisation (a slotted-page
			// compaction logged by a failed insert attempt) on a page
			// other transactions kept writing: restoring its before
			// image would wipe their later committed bytes. The live
			// rollback path skips these for the same reason.
			continue
		}
		if err := readPageForRecovery(store, rec.PageID, buf, &st); err != nil {
			return st, fmt.Errorf("wal: undo read page %d: %w", rec.PageID, err)
		}
		p := storage.WrapPage(rec.PageID, buf)
		rec.UndoPhysical(p)
		if err := store.WritePage(rec.PageID, p.Data); err != nil {
			return st, fmt.Errorf("wal: undo: %w", err)
		}
		st.Undone++
	}

	// Hand logical losers back for access-layer rollback, records in
	// log order per transaction.
	if len(logical) > 0 {
		byTxn := make(map[uint64]*LoserTxn, len(logical))
		var order []uint64
		for _, rec := range updates {
			if !logical[rec.Txn] {
				continue
			}
			lt := byTxn[rec.Txn]
			if lt == nil {
				lt = &LoserTxn{ID: rec.Txn}
				byTxn[rec.Txn] = lt
				order = append(order, rec.Txn)
			}
			lt.Records = append(lt.Records, rec)
		}
		for _, id := range order {
			st.Losers = append(st.Losers, *byTxn[id])
		}
	}
	if err := store.Sync(); err != nil {
		return st, err
	}
	return st, nil
}
