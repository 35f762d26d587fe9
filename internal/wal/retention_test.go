package wal

import (
	"testing"
)

// fillSegments appends padded records until the log spans at least n
// segments.
func fillSegments(t *testing.T, l *Log, n int) {
	t.Helper()
	payload := make([]byte, 512)
	for i := 0; l.SegmentCount() < n && i < 10_000; i++ {
		if _, err := l.Append(&Record{Txn: 1, Type: RecUpdate, PageID: 7, After: payload}); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(l.NextLSN()); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < n {
		t.Fatalf("could not grow the log to %d segments", n)
	}
}

// TestRetentionHookHoldsTruncation: with a retention hook reporting a
// low shipped LSN, checkpoint truncation must keep every segment the
// consumer still needs — and release them once the consumer catches up.
func TestRetentionHookHoldsTruncation(t *testing.T) {
	l, err := OpenDir(NewMemSegmentDir(), minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, l, 4)
	oldest := l.OldestLSN()

	// A shipper stuck at the very beginning of the log.
	shipped := oldest
	l.SetRetention(func() LSN { return shipped })

	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := l.OldestLSN(); got != oldest {
		t.Fatalf("truncation removed retained history: oldest %d -> %d", oldest, got)
	}
	if l.RetentionHolds() == 0 {
		t.Fatal("expected the hold to be counted")
	}
	// Reading from the watermark still works — the whole point.
	seen := 0
	if err := l.Iterate(shipped, func(r *Record) error { seen++; return nil }); err != nil {
		t.Fatalf("iterate from retained watermark: %v", err)
	}
	if seen == 0 {
		t.Fatal("retained log yielded no records")
	}

	// The shipper catches up; the next checkpoint reclaims everything
	// below the (new) recovery-begin LSN.
	shipped = l.NextLSN()
	before := l.SegmentCount()
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := l.SegmentCount(); got >= before {
		t.Fatalf("caught-up shipper still holds segments: %d -> %d", before, got)
	}
	if got := l.OldestLSN(); got == oldest {
		t.Fatal("truncation never advanced after catch-up")
	}

	// Clearing the hook restores pure recovery-begin truncation.
	l.SetRetention(nil)
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionNeverBlocksManifest: the manifest's recovery-begin LSN
// advances even while retention holds segment files, so recovery scans
// stay bounded regardless of slow replicas.
func TestRetentionNeverBlocksManifest(t *testing.T) {
	l, err := OpenDir(NewMemSegmentDir(), minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, l, 3)
	held := l.OldestLSN() // hook must not call back into the log
	l.SetRetention(func() LSN { return held })
	ckpt, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if rb := l.RecoveryBegin(); rb < ckpt {
		t.Fatalf("recovery-begin %d did not advance to the checkpoint %d", rb, ckpt)
	}
}

// TestActiveTxnTableFollowsTheLog: the table BeginCheckpoint returns
// holds exactly the transactions with an update record and no commit or
// abort record — the only ones whose history truncation must keep. A
// transaction that never logged is unknown to the log and holds nothing.
func TestActiveTxnTableFollowsTheLog(t *testing.T) {
	l, err := OpenDir(NewMemSegmentDir(), minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	update := func(txn uint64) LSN {
		lsn, err := l.Append(&Record{Txn: txn, Type: RecUpdate, PageID: 7, After: make([]byte, 512), Undo: UndoNone})
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	end := func(txn uint64, typ RecType) {
		if _, err := l.Append(&Record{Txn: txn, Type: typ}); err != nil {
			t.Fatal(err)
		}
	}
	first := update(1)
	update(2)
	last := update(1)
	end(2, RecCommit)
	update(3)
	end(3, RecAbort)
	end(4, RecCommit) // committed without ever logging an update

	fence, att := l.BeginCheckpoint()
	if len(att) != 1 || att[0] != (CkptTxn{ID: 1, First: first, Last: last}) {
		t.Fatalf("ATT = %+v, want txn 1 [%d, %d]", att, first, last)
	}
	if fence != l.NextLSN() {
		t.Fatalf("fence %d, log tail %d", fence, l.NextLSN())
	}
	end(1, RecCommit)
	if _, att := l.BeginCheckpoint(); len(att) != 0 {
		t.Fatalf("ATT after every txn ended: %+v", att)
	}

	// With nothing open, a checkpoint that names its own LSN as
	// recovery-begin truncates every full segment behind it.
	for txn := uint64(10); l.SegmentCount() < 4; txn++ {
		update(txn)
		end(txn, RecCommit)
		if err := l.Flush(l.NextLSN()); err != nil {
			t.Fatal(err)
		}
	}
	fence, att = l.BeginCheckpoint()
	if len(att) != 0 {
		t.Fatalf("ATT = %+v", att)
	}
	if err := l.CompleteCheckpoint(fence, fence); err != nil {
		t.Fatal(err)
	}
	if n := l.SegmentCount(); n != 1 {
		t.Fatalf("%d segments survive a checkpoint with no open txn", n)
	}
}
