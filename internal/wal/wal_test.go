package wal

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func newLog(t *testing.T) *Log {
	t.Helper()
	l, err := OpenDir(NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// segDev returns the MemDevice behind segment seq of a MemSegmentDir,
// so tests can tear or fail the active segment's device directly.
func segDev(t *testing.T, dir *MemSegmentDir, seq uint64) *storage.MemDevice {
	t.Helper()
	dev, err := dir.OpenSegment(seq)
	if err != nil {
		t.Fatal(err)
	}
	return dev.(*storage.MemDevice)
}

func TestAppendFlushIterate(t *testing.T) {
	l := newLog(t)
	recs := []*Record{
		{Txn: 1, Type: RecBegin},
		{Txn: 1, Type: RecUpdate, PageID: 3, Offset: 40, Before: []byte("old"), After: []byte("new")},
		{Txn: 1, Type: RecCommit},
	}
	var lsns []LSN
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if lsns[0] >= lsns[1] || lsns[1] >= lsns[2] {
		t.Fatalf("LSNs must increase: %v", lsns)
	}
	// Nothing durable before flush.
	var seen int
	_ = l.Iterate(ZeroLSN, func(r *Record) error { seen++; return nil })
	if seen != 0 {
		t.Fatalf("iterated %d records before flush", seen)
	}
	if err := l.Flush(lsns[2] + 1); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	if err := l.Iterate(ZeroLSN, func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("iterated %d records", len(got))
	}
	if got[1].Type != RecUpdate || string(got[1].Before) != "old" || string(got[1].After) != "new" ||
		got[1].PageID != 3 || got[1].Offset != 40 || got[1].Txn != 1 {
		t.Fatalf("record round trip: %+v", got[1])
	}
	if got[0].LSN != lsns[0] || got[2].LSN != lsns[2] {
		t.Fatal("LSNs do not match")
	}
	// Iterate from the middle.
	var fromMid int
	_ = l.Iterate(lsns[1], func(r *Record) error { fromMid++; return nil })
	if fromMid != 2 {
		t.Fatalf("from mid = %d", fromMid)
	}
	// Early stop.
	var first int
	_ = l.Iterate(ZeroLSN, func(r *Record) error { first++; return io.EOF })
	if first != 1 {
		t.Fatalf("early stop saw %d", first)
	}
}

func TestReopenFindsTail(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(&Record{Txn: uint64(i), Type: RecBegin}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	size := l.Size()

	l2, err := OpenDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Size() != size {
		t.Fatalf("size after reopen = %d, want %d", l2.Size(), size)
	}
	// New appends continue from the tail.
	lsn, _ := l2.Append(&Record{Txn: 99, Type: RecCommit})
	if uint64(lsn) != size {
		t.Fatalf("next lsn = %d, want %d", lsn, size)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := NewMemSegmentDir()
	l, _ := OpenDir(dir, 0)
	if _, err := l.Append(&Record{Txn: 1, Type: RecBegin}); err != nil {
		t.Fatal(err)
	}
	_ = l.Flush(l.NextLSN())
	good := l.Size()
	dev := segDev(t, dir, 1)
	tail, err := dev.Size()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: garbage partial record at the device tail.
	if _, err := dev.WriteAt([]byte{0x55, 0x01}, tail); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Size() != good {
		t.Fatalf("torn tail not truncated: %d vs %d", l2.Size(), good)
	}
	var n int
	_ = l2.Iterate(ZeroLSN, func(r *Record) error { n++; return nil })
	if n != 1 {
		t.Fatalf("records after torn tail = %d", n)
	}
}

func TestOpenRejectsGarbageHeader(t *testing.T) {
	dir := NewMemSegmentDir()
	dev, err := dir.OpenManifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt([]byte("garbage!"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecTypeString(t *testing.T) {
	for rt, want := range map[RecType]string{
		RecBegin: "begin", RecCommit: "commit", RecAbort: "abort",
		RecUpdate: "update", RecCheckpoint: "checkpoint", RecType(77): "rectype(77)",
	} {
		if rt.String() != want {
			t.Errorf("%d.String() = %s", rt, rt.String())
		}
	}
}

// Property: any batch of one-run records round-trips through
// append/flush/iterate, with before bytes (physical) and without.
func TestRecordRoundTripQuick(t *testing.T) {
	f := func(specs []struct {
		Txn      uint64
		Page     uint16
		Off      uint8
		After    []byte
		Physical bool
	}) bool {
		l, err := OpenDir(NewMemSegmentDir(), 0)
		if err != nil {
			return false
		}
		var want []*Record
		for _, s := range specs {
			rec := &Record{Txn: s.Txn, Type: RecUpdate, PageID: storage.PageID(s.Page), After: s.After}
			if len(s.After) > 0 {
				rec.Offset = uint16(s.Off) // an offset is only stored with a run
			}
			if s.Physical {
				rec.Before = bytes.Repeat([]byte{0xB4}, len(s.After))
			} else {
				rec.Undo = []byte("inverse")
			}
			if _, err := l.Append(rec); err != nil {
				return false
			}
			want = append(want, rec)
		}
		if err := l.Flush(l.NextLSN()); err != nil {
			return false
		}
		i := 0
		err = l.Iterate(ZeroLSN, func(r *Record) error {
			w := want[i]
			if r.Txn != w.Txn || r.PageID != w.PageID || r.Offset != w.Offset ||
				!bytes.Equal(r.Before, w.Before) || !bytes.Equal(r.After, w.After) || !bytes.Equal(r.Undo, w.Undo) {
				return errors.New("mismatch")
			}
			i++
			return nil
		})
		return err == nil && i == len(specs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// writeAt writes bytes into a page at a raw offset, via the store.
func writeAt(t *testing.T, store storage.PageStore, id storage.PageID, off int, b []byte, lsn LSN) {
	t.Helper()
	buf := make([]byte, storage.PageSize)
	if err := store.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	p := storage.WrapPage(id, buf)
	copy(p.Data[off:], b)
	p.SetLSN(uint64(lsn))
	if err := store.WritePage(id, p.Data); err != nil {
		t.Fatal(err)
	}
}

func readAt(t *testing.T, store storage.PageStore, id storage.PageID, off, n int) []byte {
	t.Helper()
	buf := make([]byte, storage.PageSize)
	if err := store.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), buf[off:off+n]...)
}

func TestRecoverRedoCommitted(t *testing.T) {
	l := newLog(t)
	disk, _ := storage.OpenDisk(storage.NewMemDevice())
	pid, _ := disk.Allocate()
	off := storage.HeaderSize

	// Committed transaction whose write never reached the page.
	_, _ = l.Append(&Record{Txn: 1, Type: RecBegin})
	up := &Record{Txn: 1, Type: RecUpdate, PageID: pid, Offset: uint16(off),
		Before: []byte("AAAA"), After: []byte("BBBB")}
	_, _ = l.Append(up)
	_, _ = l.Append(&Record{Txn: 1, Type: RecCommit})
	_ = l.Flush(l.NextLSN())

	st, err := Recover(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	if st.Redone != 1 || st.Undone != 0 || st.Committed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := readAt(t, disk, pid, off, 4); string(got) != "BBBB" {
		t.Fatalf("page content = %q", got)
	}
	// Idempotence: a second recovery changes nothing.
	st2, err := Recover(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Redone != 0 || st2.Undone != 0 {
		t.Fatalf("second recovery stats = %+v", st2)
	}
}

func TestRecoverSkipsAlreadyApplied(t *testing.T) {
	l := newLog(t)
	disk, _ := storage.OpenDisk(storage.NewMemDevice())
	pid, _ := disk.Allocate()
	off := storage.HeaderSize
	_, _ = l.Append(&Record{Txn: 1, Type: RecBegin})
	up := &Record{Txn: 1, Type: RecUpdate, PageID: pid, Offset: uint16(off),
		Before: []byte("AAAA"), After: []byte("BBBB")}
	lsn, _ := l.Append(up)
	_, _ = l.Append(&Record{Txn: 1, Type: RecCommit})
	_ = l.Flush(l.NextLSN())
	// The write DID reach the page (page LSN stamped at write time).
	writeAt(t, disk, pid, off, []byte("BBBB"), lsn)

	st, err := Recover(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	if st.Redone != 0 {
		t.Fatalf("stats = %+v, nothing should be redone", st)
	}
}

func TestRecoverUndoInFlight(t *testing.T) {
	l := newLog(t)
	disk, _ := storage.OpenDisk(storage.NewMemDevice())
	pid, _ := disk.Allocate()
	off := storage.HeaderSize

	// In-flight transaction whose two writes reached the page before
	// the crash; both must be rolled back in reverse order.
	writeAt(t, disk, pid, off, []byte("AAAA"), 0)
	_, _ = l.Append(&Record{Txn: 7, Type: RecBegin})
	l1, _ := l.Append(&Record{Txn: 7, Type: RecUpdate, PageID: pid, Offset: uint16(off),
		Before: []byte("AAAA"), After: []byte("BBBB")})
	writeAt(t, disk, pid, off, []byte("BBBB"), l1)
	l2, _ := l.Append(&Record{Txn: 7, Type: RecUpdate, PageID: pid, Offset: uint16(off),
		Before: []byte("BBBB"), After: []byte("CCCC")})
	writeAt(t, disk, pid, off, []byte("CCCC"), l2)
	_ = l.Flush(l.NextLSN())
	// No commit: transaction is in flight at "crash".

	st, err := Recover(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	if st.Undone != 2 || st.InFlight != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := readAt(t, disk, pid, off, 4); string(got) != "AAAA" {
		t.Fatalf("page content = %q, want rollback to AAAA", got)
	}
}

func TestRecoverMixedTransactions(t *testing.T) {
	l := newLog(t)
	disk, _ := storage.OpenDisk(storage.NewMemDevice())
	p1, _ := disk.Allocate()
	p2, _ := disk.Allocate()
	off := storage.HeaderSize

	writeAt(t, disk, p1, off, []byte("1111"), 0)
	writeAt(t, disk, p2, off, []byte("2222"), 0)

	// Txn 1 commits (write lost), txn 2 aborts cleanly (write
	// persisted, rollback compensation logged but its write lost — the
	// contract is that RecAbort is only appended after a compensation
	// record exists for every update).
	_, _ = l.Append(&Record{Txn: 1, Type: RecBegin})
	_, _ = l.Append(&Record{Txn: 2, Type: RecBegin})
	_, _ = l.Append(&Record{Txn: 1, Type: RecUpdate, PageID: p1, Offset: uint16(off),
		Before: []byte("1111"), After: []byte("aaaa")})
	lu2, _ := l.Append(&Record{Txn: 2, Type: RecUpdate, PageID: p2, Offset: uint16(off),
		Before: []byte("2222"), After: []byte("bbbb")})
	writeAt(t, disk, p2, off, []byte("bbbb"), lu2)
	_, _ = l.Append(&Record{Txn: 2, Type: RecUpdate, PageID: p2, Offset: uint16(off),
		After: []byte("2222")}) // compensation: redo-only restore
	_, _ = l.Append(&Record{Txn: 1, Type: RecCommit})
	_, _ = l.Append(&Record{Txn: 2, Type: RecAbort})
	_ = l.Flush(l.NextLSN())

	st, err := Recover(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	if st.Redone != 2 || st.Undone != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := readAt(t, disk, p1, off, 4); string(got) != "aaaa" {
		t.Fatalf("p1 = %q", got)
	}
	if got := readAt(t, disk, p2, off, 4); string(got) != "2222" {
		t.Fatalf("p2 = %q", got)
	}
}

// TestRecoverLoserRedoOnlyNotUndone pins the rule that physical undo
// skips redo-only records. A failed slotted-page insert logs the
// compaction it performed as a redo-only record; if that transaction
// then dies without any logical-undo record it is rolled back
// physically — and restoring the compaction's before image would wipe
// every byte later committed transactions wrote into the reorganised
// layout (the TestKVCrashRecoveryConcurrentMidWriteBack resurrection:
// a commit-timestamp stamp applied at the post-compaction cell offset
// vanished under the loser's before image).
func TestRecoverLoserRedoOnlyNotUndone(t *testing.T) {
	l := newLog(t)
	disk, _ := storage.OpenDisk(storage.NewMemDevice())
	pid, _ := disk.Allocate()
	off := storage.HeaderSize

	writeAt(t, disk, pid, off, []byte("AAAA"), 0)
	// Txn 8 inserts, txn 9 reorganises the page (redo-only: content-
	// preserving, never undone), txn 8 stamps over the reorganised
	// layout and commits. Txn 9 is still in flight at the crash, with
	// no logical-undo records — a physical loser.
	_, _ = l.Append(&Record{Txn: 8, Type: RecBegin})
	_, _ = l.Append(&Record{Txn: 8, Type: RecUpdate, PageID: pid, Offset: uint16(off),
		Before: []byte("AAAA"), After: []byte("BBBB")})
	_, _ = l.Append(&Record{Txn: 9, Type: RecBegin})
	_, _ = l.Append(&Record{Txn: 9, Type: RecUpdate, PageID: pid, Offset: uint16(off),
		Before: []byte("BBBB"), After: []byte("CCCC"), Undo: UndoNone})
	_, _ = l.Append(&Record{Txn: 8, Type: RecUpdate, PageID: pid, Offset: uint16(off),
		Before: []byte("CCCC"), After: []byte("DDDD")})
	_, _ = l.Append(&Record{Txn: 8, Type: RecCommit})
	_ = l.Flush(l.NextLSN())

	st, err := Recover(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	if st.Undone != 0 {
		t.Fatalf("stats = %+v, redo-only loser record must not be undone", st)
	}
	if got := readAt(t, disk, pid, off, 4); string(got) != "DDDD" {
		t.Fatalf("page = %q, want committed DDDD to survive the loser's rollback", got)
	}
}

func TestBeforeEvictHookFlushes(t *testing.T) {
	l := newLog(t)
	hook := l.BeforeEvict()
	lsn, _ := l.Append(&Record{Txn: 1, Type: RecUpdate, PageID: 1, Offset: 32,
		Before: []byte("a"), After: []byte("b")})
	// Page stamped with this LSN: evicting it must flush the log first.
	if err := hook(1, uint64(lsn)); err != nil {
		t.Fatal(err)
	}
	if l.DurableBoundary() <= lsn {
		t.Fatalf("flushed = %d, want > %d", l.DurableBoundary(), lsn)
	}
	// Page with an old LSN does not force a flush.
	before := l.DurableBoundary()
	if err := hook(1, 0); err != nil {
		t.Fatal(err)
	}
	if l.DurableBoundary() != before {
		t.Fatal("hook must not flush for already-durable LSNs")
	}
}

func TestCheckpointBoundsRecoveryScan(t *testing.T) {
	dir := NewMemSegmentDir()
	l, _ := OpenDir(dir, 0)
	disk, _ := storage.OpenDisk(storage.NewMemDevice())
	pid, _ := disk.Allocate()
	off := storage.HeaderSize

	// Committed work before the checkpoint, applied to the page.
	_, _ = l.Append(&Record{Txn: 1, Type: RecBegin})
	lu, _ := l.Append(&Record{Txn: 1, Type: RecUpdate, PageID: pid, Offset: uint16(off),
		Before: []byte("AAAA"), After: []byte("BBBB")})
	_, _ = l.Append(&Record{Txn: 1, Type: RecCommit})
	writeAt(t, disk, pid, off, []byte("BBBB"), lu)

	ck, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if l.LastCheckpoint() != ck {
		t.Fatalf("LastCheckpoint = %d, want %d", l.LastCheckpoint(), ck)
	}

	// Post-checkpoint committed work that never reached the page.
	_, _ = l.Append(&Record{Txn: 2, Type: RecBegin})
	_, _ = l.Append(&Record{Txn: 2, Type: RecUpdate, PageID: pid, Offset: uint16(off),
		Before: []byte("BBBB"), After: []byte("CCCC")})
	_, _ = l.Append(&Record{Txn: 2, Type: RecCommit})
	_ = l.Flush(l.NextLSN())

	// Reopen (checkpoint LSN must persist in the manifest) and recover.
	l2, err := OpenDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastCheckpoint() != ck {
		t.Fatalf("checkpoint lost across reopen: %d", l2.LastCheckpoint())
	}
	st, err := Recover(l2, disk)
	if err != nil {
		t.Fatal(err)
	}
	// Analysis starts at the checkpoint: only txn 2's records scanned
	// (checkpoint record + 3), and only its update redone.
	if st.Scanned > 4 {
		t.Fatalf("scanned %d records, checkpoint not honoured", st.Scanned)
	}
	if st.Redone != 1 {
		t.Fatalf("redone = %d", st.Redone)
	}
	if got := readAt(t, disk, pid, off, 4); string(got) != "CCCC" {
		t.Fatalf("page = %q", got)
	}
}
