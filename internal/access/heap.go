package access

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Heap file errors.
var (
	// ErrRecordTooLarge is returned when a record exceeds one page.
	ErrRecordTooLarge = errors.New("access: record too large for a page")
)

// RID identifies a record: page plus slot.
type RID struct {
	Page storage.PageID
	Slot uint16
}

// String implements fmt.Stringer.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// TxnContext is the minimal transactional hook a heap file needs: the
// transaction id for log records and a callback to register each update
// (for undo and LSN chaining). internal/txn provides the real
// implementation; nil means unlogged operation.
type TxnContext interface {
	// ID returns the transaction id.
	ID() uint64
	// LastLSN returns the transaction's most recent log record.
	LastLSN() wal.LSN
	// Record registers an appended update record with the transaction.
	Record(rec *wal.Record)
}

// CompensationContext is optionally implemented by TxnContexts used
// while rolling a transaction back: records logged through them are
// compensations and carry the redo-only marker instead of a fresh undo
// descriptor (an undo is never itself undone; idempotent inverses plus
// repeat-history redo make re-running a half-durable rollback safe).
type CompensationContext interface {
	Compensating() bool
}

// SystemTxnHooks supplies short system transactions to access methods:
// self-contained, WAL-logged page mutations (B+tree structure
// modifications) that commit independently of the user transaction
// that triggered them. internal/txn provides the implementation; a
// zero value means unlogged operation.
type SystemTxnHooks struct {
	Begin  func() (TxnContext, error)
	Commit func(TxnContext) error
	Abort  func(TxnContext) error
}

// HeapFile stores variable-length records in a chain of slotted pages
// managed by the file manager, cached by the buffer manager, and
// (optionally) logged to the WAL. It is the record-level storage
// service behind tables.
//
// Concurrency: every page access runs under the buffer pool's page
// latches (shared for reads, exclusive for mutations), so operations on
// different pages proceed in parallel and operations on the same page
// serialise only for the latch hold. The struct's own mutex guards just
// the free-space hint list and configuration; file growth serialises on
// a separate append mutex so concurrent inserts don't race to extend
// the chain.
type HeapFile struct {
	name string
	fm   *storage.FileManager
	pool *buffer.Manager

	mu       sync.Mutex
	log      *wal.Log
	freeHint []storage.PageID // pages with reclaimed space

	appendMu sync.Mutex // serialises chain growth
}

// OpenHeap opens the named heap file, creating it if absent.
func OpenHeap(name string, fm *storage.FileManager, pool *buffer.Manager) (*HeapFile, error) {
	if !fm.Exists(name) {
		if err := fm.Create(name); err != nil && !errors.Is(err, storage.ErrFileExists) {
			return nil, err
		}
	}
	return &HeapFile{name: name, fm: fm, pool: pool}, nil
}

// SetLog attaches a write-ahead log; subsequent mutations through a
// non-nil TxnContext are logged with physical redo images and logical
// undo descriptors.
func (h *HeapFile) SetLog(l *wal.Log) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.log = l
}

func (h *HeapFile) getLog() *wal.Log {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.log
}

// Name returns the file name.
func (h *HeapFile) Name() string { return h.name }

// MutatePage pins the page under an exclusive page latch, runs fn over
// it, and — when log and tx are both non-nil — appends one update
// record covering the page transition, stamps the page LSN, and
// registers the record with the transaction. Physical before-image undo
// (undo == nil) is only sound for serialised writers (system
// transactions); concurrent user transactions attach a logical undo
// descriptor via MutatePageUndo.
func MutatePage(pool *buffer.Manager, log *wal.Log, tx TxnContext, pid storage.PageID, fn func(p *storage.Page) error) error {
	return MutatePageUndo(pool, log, tx, pid, nil, fn)
}

// MutatePageUndo is MutatePage with a logical-undo descriptor supplier:
// undo is evaluated after fn succeeded (so it can reference slot
// numbers fn assigned) and attached to the log record. A tx that
// implements CompensationContext forces the redo-only marker instead.
// It pins pid exclusively around LogLatchedMutation, the one
// WAL-logging protocol of every pool-based access method (heap files,
// B+trees), and marks the page dirty only if that succeeded.
func MutatePageUndo(pool *buffer.Manager, log *wal.Log, tx TxnContext, pid storage.PageID, undo func() []byte, fn func(p *storage.Page) error) error {
	f, err := pool.PinLatched(pid, true)
	if err != nil {
		return err
	}
	if err := LogLatchedMutation(log, tx, f, undo, fn); err != nil {
		_ = pool.UnpinLatched(pid, true, false)
		return err
	}
	return pool.UnpinLatched(pid, true, true)
}

// LogLatchedMutation applies fn to a frame the caller already holds
// exclusively latched and logs the transition: the before image, the
// undo descriptor (the redo-only marker under a CompensationContext),
// one update record, the page LSN stamp and tx.Record. The caller
// remains responsible for marking the frame dirty when it unlatches.
// B+tree crabbing calls it directly, since the descent acquires the
// latches; MutatePageUndo wraps it in a pin for one page.
func LogLatchedMutation(log *wal.Log, tx TxnContext, f *buffer.Frame, undo func() []byte, fn func(p *storage.Page) error) error {
	page := f.Page()
	logging := log != nil && tx != nil
	var before []byte
	if logging {
		before = append([]byte(nil), page.Data...)
	}
	if err := fn(page); err != nil {
		return err
	}
	if logging {
		var desc []byte
		if c, ok := tx.(CompensationContext); ok && c.Compensating() {
			desc = wal.UndoNone
		} else if undo != nil {
			desc = undo()
		}
		rec, err := log.AppendPageUpdate(tx.ID(), tx.LastLSN(), f.ID, before, page.Data, desc)
		if err != nil {
			// Unloggable: restore the exact prior bytes under the
			// caller's latch so no unlogged mutation survives.
			copy(page.Data, before)
			return err
		}
		if rec != nil {
			page.SetLSN(uint64(rec.LSN))
			tx.Record(rec)
		}
	}
	return nil
}

// mutatePage applies fn to pid under the heap's pool and log.
func (h *HeapFile) mutatePage(tx TxnContext, pid storage.PageID, undo func() []byte, fn func(p *storage.Page) error) error {
	return MutatePageUndo(h.pool, h.getLog(), tx, pid, undo, fn)
}

// Insert stores a record and returns its RID. With a non-nil tx the
// mutation is WAL-logged under that transaction with a logical undo
// (delete the slot again).
func (h *HeapFile) Insert(tx TxnContext, rec []byte) (RID, error) {
	if len(rec) > maxRecordLen {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}

	try := func(pid storage.PageID) (RID, bool, error) {
		var rid RID
		ok := false
		// A full page is not an error for the mutation protocol: the
		// failed Insert may still have compacted the page, and that
		// reorganisation MUST be logged (redo replays diffs against the
		// exact byte history; an unlogged layout change would corrupt
		// every later diff on the page). Compaction is content-
		// preserving, so the record is redo-only — rollback never needs
		// to undo it.
		undo := func() []byte {
			if !ok {
				return wal.UndoNone
			}
			return UndoHeapInsert(rid)
		}
		err := h.mutatePage(tx, pid, undo, func(p *storage.Page) error {
			sp := Slotted(p)
			slot, err := sp.Insert(rec)
			if errors.Is(err, ErrPageFull) {
				return nil // not an error; just try elsewhere
			}
			if err != nil {
				return err
			}
			rid = RID{Page: pid, Slot: uint16(slot)}
			ok = true
			return nil
		})
		return rid, ok, err
	}

	// Pages with reclaimed space first, then the chain tail.
	for _, pid := range h.hintSnapshot() {
		rid, ok, err := try(pid)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
		h.dropHint(pid)
	}
	if last, err := h.fm.LastPage(h.name); err == nil && last != storage.InvalidPageID {
		rid, ok, err := try(last)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
	}
	// Grow the file. One grower at a time: a racing insert that lost
	// the append mutex retries the (possibly new) tail first instead of
	// appending a second page.
	h.appendMu.Lock()
	defer h.appendMu.Unlock()
	if last, err := h.fm.LastPage(h.name); err == nil && last != storage.InvalidPageID {
		rid, ok, err := try(last)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
	}
	// The file manager WAL-logs the directory update and chain links of
	// an appended page under a system transaction, so recovery reaches
	// it without any eager flush here.
	for {
		pid, err := h.fm.AppendPage(h.name, storage.PageTypeHeap)
		if err != nil {
			return RID{}, err
		}
		// The fresh page is the chain tail from here on, so inserters
		// that do not hold appendMu may fill it first: then grow again.
		// (Its zeroed payload formats itself: the full-page Insert's
		// compaction of a page with no cells resets its free space.)
		if rid, ok, err := try(pid); err != nil || ok {
			return rid, err
		}
	}
}

func (h *HeapFile) hintSnapshot() []storage.PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]storage.PageID(nil), h.freeHint...)
}

func (h *HeapFile) dropHint(pid storage.PageID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, f := range h.freeHint {
		if f == pid {
			h.freeHint = append(h.freeHint[:i], h.freeHint[i+1:]...)
			return
		}
	}
}

// NoteFree records that pid has reclaimable space (insert candidates).
func (h *HeapFile) NoteFree(pid storage.PageID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, f := range h.freeHint {
		if f == pid {
			return
		}
	}
	h.freeHint = append(h.freeHint, pid)
}

// Get returns a copy of the record's cell at rid (including any padding
// left by UpdateInPlace — callers' record encodings are
// self-delimiting), read under a shared page latch.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	f, err := h.pool.PinLatched(rid.Page, false)
	if err != nil {
		return nil, err
	}
	sp := Slotted(f.Page())
	rec, err := sp.Get(int(rid.Slot))
	if err != nil {
		_ = h.pool.UnpinLatched(rid.Page, false, false)
		return nil, err
	}
	out := append([]byte(nil), rec...)
	if err := h.pool.UnpinLatched(rid.Page, false, false); err != nil {
		return nil, err
	}
	return out, nil
}

// StampBytes overwrites len(val) bytes at offset off within the cell
// at rid, WAL-logged with a logical undo that restores the old bytes.
// It is the version-header mutation primitive: commit stamping writes
// a begin timestamp over the uncommitted mark, and the vacuum severs a
// chain by stamping a version's prev link. The caller's key lock (or
// the vacuum's TryAcquire) must exclude concurrent writers of the same
// logical record; the page latch inside the mutation protocol makes
// the byte splice atomic against unrelated neighbours.
func (h *HeapFile) StampBytes(tx TxnContext, rid RID, off int, val []byte) error {
	var old []byte
	return h.mutatePage(tx, rid.Page, func() []byte { return UndoHeapField(rid, off, old) }, func(p *storage.Page) error {
		sp := Slotted(p)
		cell, err := sp.Get(int(rid.Slot))
		if err != nil {
			return err
		}
		if off+len(val) > len(cell) {
			return fmt.Errorf("%w: stamp %d+%d past cell end %d", ErrBadUndo, off, len(val), len(cell))
		}
		old = append([]byte(nil), cell[off:off+len(val)]...)
		copy(cell[off:], val)
		return nil
	})
}

// Delete removes the record at rid immediately, with a logical undo
// that restores the record bytes into the same slot. Immediate deletion
// is only rollback-safe when the caller's locking prevents any OTHER
// transaction from inserting into this heap while the deleting
// transaction is live (table-level X locks): otherwise the freed slot
// could be reused before an abort restores it. The per-key store never
// deletes a live version: the vacuum reclaims chain slots only once no
// snapshot can reach them.
func (h *HeapFile) Delete(tx TxnContext, rid RID) error {
	var old []byte
	err := h.mutatePage(tx, rid.Page, func() []byte { return UndoHeapDelete(rid, old) }, func(p *storage.Page) error {
		sp := Slotted(p)
		cur, err := sp.Get(int(rid.Slot))
		if err != nil {
			return err
		}
		old = append([]byte(nil), cur...)
		return sp.Delete(int(rid.Slot))
	})
	if err != nil {
		return err
	}
	h.NoteFree(rid.Page)
	return nil
}

// UpdateInPlace overwrites the record at rid without moving it, keeping
// the cell length (shorter records are zero-padded): the undo — restore
// the old cell bytes — then always fits, no matter what concurrent
// transactions do to the rest of the page. Returns false (and no
// mutation) when the record exceeds the cell; the caller then inserts a
// fresh record and retargets its index. Requires a self-delimiting
// record encoding.
func (h *HeapFile) UpdateInPlace(tx TxnContext, rid RID, rec []byte) (bool, error) {
	var old []byte
	err := h.mutatePage(tx, rid.Page, func() []byte { return UndoHeapCell(rid, old) }, func(p *storage.Page) error {
		sp := Slotted(p)
		cur, err := sp.Cell(int(rid.Slot))
		if err != nil {
			return err
		}
		old = append([]byte(nil), cur...)
		return sp.UpdatePadded(int(rid.Slot), rec)
	})
	if errors.Is(err, ErrPageFull) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Update replaces the record at rid with exact length bookkeeping,
// relocating it when it no longer fits its page (the old slot is
// deleted and the new location returned). Like Delete, it is meant for
// callers whose locking excludes concurrent writers from the heap;
// rollback restores the old record via the page's free space.
func (h *HeapFile) Update(tx TxnContext, rid RID, rec []byte) (RID, error) {
	if len(rec) > maxRecordLen {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	moved := false
	var old []byte
	err := h.mutatePage(tx, rid.Page, func() []byte {
		if moved {
			return UndoHeapDelete(rid, old)
		}
		return UndoHeapUpdate(rid, old)
	}, func(p *storage.Page) error {
		sp := Slotted(p)
		cur, err := sp.Get(int(rid.Slot))
		if err != nil {
			return err
		}
		old = append([]byte(nil), cur...)
		err = sp.Update(int(rid.Slot), rec)
		if errors.Is(err, ErrPageFull) {
			moved = true
			return sp.Delete(int(rid.Slot))
		}
		return err
	})
	if err != nil {
		return RID{}, err
	}
	if !moved {
		return rid, nil
	}
	h.NoteFree(rid.Page)
	return h.Insert(tx, rec)
}

// Scan iterates all records in chain order, each page visited under a
// shared latch. The record slice passed to fn aliases the latched page;
// fn must copy it to retain it past the callback.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) error) error {
	first, err := h.fm.FirstPage(h.name)
	if err != nil {
		return err
	}
	for pid := first; pid != storage.InvalidPageID; {
		f, err := h.pool.PinLatched(pid, false)
		if err != nil {
			return err
		}
		page := f.Page()
		sp := Slotted(page)
		next := page.Next()
		err = sp.Records(func(slot int, rec []byte) error {
			return fn(RID{Page: pid, Slot: uint16(slot)}, rec)
		})
		if uerr := h.pool.UnpinLatched(pid, false, false); uerr != nil && err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
		pid = next
	}
	return nil
}

// Count returns the number of live records (full scan).
func (h *HeapFile) Count() (int, error) {
	n := 0
	err := h.Scan(func(RID, []byte) error { n++; return nil })
	return n, err
}
