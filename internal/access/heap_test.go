package access

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

func newHeap(t *testing.T) (*HeapFile, *buffer.Manager) {
	t.Helper()
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(d, 16, buffer.NewLRU())
	fm, err := storage.OpenFileManager(pool)
	if err != nil {
		t.Fatal(err)
	}
	h, err := OpenHeap("heap", fm, pool)
	if err != nil {
		t.Fatal(err)
	}
	return h, pool
}

func TestHeapInsertGetDelete(t *testing.T) {
	h, _ := newHeap(t)
	rid, err := h.Insert(nil, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := h.Delete(nil, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("err = %v", err)
	}
	if rid.String() == "" {
		t.Fatal("RID string")
	}
}

func TestHeapManyPagesAndScan(t *testing.T) {
	h, _ := newHeap(t)
	const n = 500
	rids := make(map[string]RID, n)
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte("x"), 50)))
		rid, err := h.Insert(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids[string(rec)] = rid
	}
	count, err := h.Count()
	if err != nil || count != n {
		t.Fatalf("Count = %d, %v", count, err)
	}
	seen := 0
	err = h.Scan(func(rid RID, rec []byte) error {
		want, ok := rids[string(rec)]
		if !ok || want != rid {
			return fmt.Errorf("unexpected record %q at %v", rec, rid)
		}
		seen++
		return nil
	})
	if err != nil || seen != n {
		t.Fatalf("scan: %d, %v", seen, err)
	}
}

func TestHeapUpdateInPlaceAndMoved(t *testing.T) {
	h, _ := newHeap(t)
	rid, _ := h.Insert(nil, []byte("short"))
	// In-place update.
	nrid, err := h.Update(nil, rid, []byte("tiny"))
	if err != nil || nrid != rid {
		t.Fatalf("update = %v, %v", nrid, err)
	}
	if got, _ := h.Get(rid); string(got) != "tiny" {
		t.Fatalf("Get = %q", got)
	}
	// Fill the page so a big update must move the record.
	filler := bytes.Repeat([]byte("f"), 900)
	for i := 0; i < 4; i++ {
		if _, err := h.Insert(nil, filler); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("B"), 2000)
	nrid, err = h.Update(nil, rid, big)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Get(nrid); !bytes.Equal(got, big) {
		t.Fatal("moved record content lost")
	}
	if nrid == rid {
		// Acceptable only if it stayed; verify content either way.
		t.Log("update fit in place after compaction")
	} else if _, err := h.Get(rid); !errors.Is(err, ErrNoSlot) {
		t.Fatal("old RID must be dead after move")
	}
}

func TestHeapDeletedSpaceReused(t *testing.T) {
	h, _ := newHeap(t)
	rec := bytes.Repeat([]byte("r"), 500)
	var rids []RID
	for i := 0; i < 20; i++ {
		rid, err := h.Insert(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pagesBefore := h.pool.NumPages()
	// Free a whole page worth of records, then insert again.
	for _, rid := range rids[:8] {
		if err := h.Delete(nil, rid); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := h.Insert(nil, rec); err != nil {
			t.Fatal(err)
		}
	}
	if h.pool.NumPages() != pagesBefore {
		t.Fatalf("pages grew %d -> %d despite free space", pagesBefore, h.pool.NumPages())
	}
}

func TestHeapRecordTooLarge(t *testing.T) {
	h, _ := newHeap(t)
	big := make([]byte, storage.PayloadSize)
	if _, err := h.Insert(nil, big); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v", err)
	}
	rid, _ := h.Insert(nil, []byte("ok"))
	if _, err := h.Update(nil, rid, big); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestHeapDrop(t *testing.T) {
	h, _ := newHeap(t)
	if _, err := h.Insert(nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.Drop(); err != nil {
		t.Fatal(err)
	}
	if err := h.Scan(func(RID, []byte) error { return nil }); !errors.Is(err, storage.ErrFileNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// fakeTxn implements TxnContext recording updates.
type fakeTxn struct {
	id      uint64
	lastLSN wal.LSN
	recs    []*wal.Record
}

func (f *fakeTxn) ID() uint64           { return f.id }
func (f *fakeTxn) LastLSN() wal.LSN     { return f.lastLSN }
func (f *fakeTxn) Record(r *wal.Record) { f.recs = append(f.recs, r); f.lastLSN = r.LSN }

func TestHeapWALLogging(t *testing.T) {
	d, _ := storage.OpenDisk(storage.NewMemDevice())
	pool := buffer.New(d, 16, buffer.NewLRU())
	fm, _ := storage.OpenFileManager(pool)
	h, _ := OpenHeap("heap", fm, pool)
	logDir := wal.NewMemSegmentDir()
	l, err := wal.OpenDir(logDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.SetLog(l)
	pool.SetBeforeEvict(l.BeforeEvict())

	tx := &fakeTxn{id: 42}
	rid, err := h.Insert(tx, []byte("logged"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.recs) != 1 {
		t.Fatalf("recs = %d", len(tx.recs))
	}
	rec := tx.recs[0]
	if rec.Txn != 42 || rec.PageID != rid.Page || rec.Type != wal.RecUpdate {
		t.Fatalf("rec = %+v", rec)
	}
	// A heap insert is logically undone (delete the slot), so the record
	// carries after bytes only.
	if len(rec.After) == 0 || len(rec.Before) != 0 || !rec.LogicalUndo() {
		t.Fatalf("images: before %d after %d undo %q", len(rec.Before), len(rec.After), rec.Undo)
	}
	// The after image contains the record bytes somewhere.
	if !bytes.Contains(rec.After, []byte("logged")) {
		t.Fatal("after image must contain the inserted record")
	}
	// Chaining: a second op records PrevLSN of the first.
	if _, err := h.Insert(tx, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if tx.recs[1].PrevLSN != rec.LSN {
		t.Fatalf("PrevLSN = %d, want %d", tx.recs[1].PrevLSN, rec.LSN)
	}
	// Unlogged when tx == nil.
	before := len(tx.recs)
	if _, err := h.Insert(nil, []byte("unlogged")); err != nil {
		t.Fatal(err)
	}
	if len(tx.recs) != before {
		t.Fatal("nil txn must not log")
	}
}

func TestHeapWALRecoveryRoundTrip(t *testing.T) {
	// Build a heap on a durable device, log mutations, "crash" without
	// flushing the pool, recover from the log, and verify.
	dev := storage.NewMemDevice()
	d, _ := storage.OpenDisk(dev)
	pool := buffer.New(d, 16, buffer.NewLRU())
	fm, _ := storage.OpenFileManager(pool)
	h, _ := OpenHeap("heap", fm, pool)
	logDir := wal.NewMemSegmentDir()
	l, _ := wal.OpenDir(logDir, 0)
	h.SetLog(l)
	pool.SetBeforeEvict(l.BeforeEvict())

	tx := &fakeTxn{id: 1}
	rid, err := h.Insert(tx, []byte("durable-record"))
	if err != nil {
		t.Fatal(err)
	}
	// File manager metadata must be durable for recovery to find the
	// heap (the directory is not WAL-logged; flush it explicitly, as
	// the engine does on DDL).
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A second committed insert that never reaches the disk: redo must
	// replay it.
	rid1b, err := h.Insert(tx, []byte("redo-me"))
	if err != nil {
		t.Fatal(err)
	}

	tx2 := &fakeTxn{id: 2}
	rid2, err := h.Insert(tx2, []byte("lost-record"))
	if err != nil {
		t.Fatal(err)
	}
	_ = rid2
	// Commit tx (log flushed), tx2 stays in flight.
	if _, err := l.Append(&wal.Record{Txn: 1, Type: wal.RecCommit}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}

	// "Crash": reopen the disk without flushing the pool; then recover.
	d2, err := storage.OpenDisk(dev)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := wal.OpenDir(logDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := wal.Recover(l2, d2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Redone == 0 {
		t.Fatalf("stats = %+v, expected redo work", st)
	}
	pool2 := buffer.New(d2, 16, buffer.NewLRU())
	fm2, err := storage.OpenFileManager(pool2)
	if err != nil {
		t.Fatal(err)
	}
	// Redo repeated history, including the in-flight loser; finish its
	// rollback by applying the logical undo descriptors (the full
	// engine does this via txn.Manager.UndoLosers).
	if len(st.Losers) != 1 {
		t.Fatalf("losers = %d, want the in-flight txn", len(st.Losers))
	}
	for _, lt := range st.Losers {
		for i := len(lt.Records) - 1; i >= 0; i-- {
			if handled, err := ApplyHeapUndo(pool2, nil, nil, lt.Records[i].Undo); err != nil || !handled {
				t.Fatalf("heap undo: handled=%v err=%v", handled, err)
			}
		}
	}
	h2, err := OpenHeap("heap", fm2, pool2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.Get(rid)
	if err != nil || string(got) != "durable-record" {
		t.Fatalf("recovered Get = %q, %v", got, err)
	}
	got, err = h2.Get(rid1b)
	if err != nil || string(got) != "redo-me" {
		t.Fatalf("redone Get = %q, %v", got, err)
	}
	// The in-flight record was rolled back.
	count, err := h2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count after recovery = %d, want 2", count)
	}
}
