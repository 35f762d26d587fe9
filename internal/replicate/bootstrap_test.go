package replicate

// The full-state bootstrap path and its typed failure mode: a follower
// that cannot tail the live log any more gets ErrSnapshotNeeded, which
// callers branch on to trigger a bootstrap instead of crashing or
// retrying a permanent gap forever.

import (
	"errors"
	"testing"

	"repro/internal/storage"
	"repro/internal/wal"
)

const testSegBytes = 2 * storage.PageSize

func openTestLog(t *testing.T) *wal.Log {
	t.Helper()
	l, err := wal.OpenDir(wal.NewMemSegmentDir(), testSegBytes)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendFlushed(t *testing.T, l *wal.Log, n int, payload byte) {
	t.Helper()
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = payload
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(&wal.Record{Txn: 1, Type: wal.RecUpdate, PageID: 3, After: buf}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
}

// collectFrom gathers the records at or past from, as a shipper would.
func collectFrom(t *testing.T, l *wal.Log, from wal.LSN) []*wal.Record {
	t.Helper()
	var recs []*wal.Record
	err := l.Iterate(from, func(r *wal.Record) error {
		cp := *r
		cp.After = append([]byte(nil), r.After...)
		recs = append(recs, &cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestFollowerWALAppendDupSkipAndGap(t *testing.T) {
	l := openTestLog(t)
	appendFlushed(t, l, 4, 0xAA)

	dev := storage.NewMemDevice()
	boot, err := Snapshot(dev, l)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := OpenFollowerWAL(wal.NewMemSegmentDir(), boot)
	if err != nil {
		t.Fatal(err)
	}
	if fw.Next() != boot.Durable {
		t.Fatalf("fresh follower WAL next = %d, want snapshot durable %d", fw.Next(), boot.Durable)
	}

	appendFlushed(t, l, 3, 0xBB)
	recs := collectFrom(t, l, boot.Durable)
	if len(recs) != 3 {
		t.Fatalf("got %d post-snapshot records, want 3", len(recs))
	}

	for _, rec := range recs {
		ok, err := fw.Append(rec)
		if err != nil || !ok {
			t.Fatalf("append LSN %d = (%v, %v), want (true, nil)", rec.LSN, ok, err)
		}
	}
	// Redelivery: every record is a silent duplicate, not an error.
	for _, rec := range recs {
		ok, err := fw.Append(rec)
		if err != nil || ok {
			t.Fatalf("re-append LSN %d = (%v, %v), want (false, nil)", rec.LSN, ok, err)
		}
	}
	// A gap is typed: the follower cannot tail across missing history.
	gap := *recs[len(recs)-1]
	gap.LSN = fw.Next() + 4096
	gap.End = 0
	if _, err := fw.Append(&gap); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("gap append err = %v, want ErrSnapshotNeeded", err)
	}
	if err := fw.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerWALByteFidelity: the follower's log directory, seeded
// from a snapshot and extended by Append, reopens as a normal WAL whose
// records equal the leader's — the byte-identical copy promotion-time
// crash recovery depends on.
func TestFollowerWALByteFidelity(t *testing.T) {
	l := openTestLog(t)
	appendFlushed(t, l, 5, 0xCC)

	boot, err := Snapshot(storage.NewMemDevice(), l)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := OpenFollowerWAL(wal.NewMemSegmentDir(), boot)
	if err != nil {
		t.Fatal(err)
	}
	appendFlushed(t, l, 4, 0xDD)
	for _, rec := range collectFrom(t, l, boot.Durable) {
		if _, err := fw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Sync(); err != nil {
		t.Fatal(err)
	}

	reopened, err := wal.OpenDir(fw.Dir(), testSegBytes)
	if err != nil {
		t.Fatalf("reopening follower log dir: %v", err)
	}
	want := collectFrom(t, l, l.OldestLSN())
	got := collectFrom(t, reopened, reopened.OldestLSN())
	if len(got) != len(want) {
		t.Fatalf("follower log has %d records, leader %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.LSN != w.LSN || g.End != w.End || g.Type != w.Type || g.PageID != w.PageID {
			t.Fatalf("record %d header mismatch: got {lsn %d end %d type %d page %d}, want {lsn %d end %d type %d page %d}",
				i, g.LSN, g.End, g.Type, g.PageID, w.LSN, w.End, w.Type, w.PageID)
		}
		if string(g.After) != string(w.After) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
}

// TestFollowerWALReseedAfterTruncation: a follower whose resume point
// a checkpoint truncated away cannot tail on — reading the log from its
// Next fails with wal.ErrSegmentGone, and appending the oldest record
// still held is a gap typed ErrSnapshotNeeded. The cure works:
// snapshot, reseed a follower WAL, resume tailing from the snapshot's
// boundary.
func TestFollowerWALReseedAfterTruncation(t *testing.T) {
	l := openTestLog(t)
	appendFlushed(t, l, 8, 0x11)
	boot, err := Snapshot(storage.NewMemDevice(), l)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := OpenFollowerWAL(wal.NewMemSegmentDir(), boot)
	if err != nil {
		t.Fatal(err)
	}

	// Run the log far ahead — several segments — and checkpoint with NO
	// retention hook: truncation removes the follower's resume segment.
	for l.SegmentCount() < 4 {
		appendFlushed(t, l, 8, 0x22)
	}
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Iterate(fw.Next(), func(*wal.Record) error { return nil }); !errors.Is(err, wal.ErrSegmentGone) {
		t.Fatalf("reading from the truncated resume point: err = %v, want wal.ErrSegmentGone", err)
	}
	if _, err := fw.Append(collectFrom(t, l, l.OldestLSN())[0]); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("appending across truncated history: err = %v, want ErrSnapshotNeeded", err)
	}

	boot, err = Snapshot(storage.NewMemDevice(), l)
	if err != nil {
		t.Fatal(err)
	}
	fw, err = OpenFollowerWAL(wal.NewMemSegmentDir(), boot)
	if err != nil {
		t.Fatal(err)
	}
	appendFlushed(t, l, 2, 0x33)
	recs := collectFrom(t, l, boot.Durable)
	if len(recs) != 2 {
		t.Fatalf("got %d post-snapshot records, want 2", len(recs))
	}
	for _, rec := range recs {
		if ok, err := fw.Append(rec); err != nil || !ok {
			t.Fatalf("post-bootstrap append LSN %d = (%v, %v)", rec.LSN, ok, err)
		}
	}
}
