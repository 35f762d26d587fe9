package txn

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/wal"
)

// TestEmptyTxnLeavesNoTrace: a transaction that logged nothing ends
// without a begin, commit or abort record and without forcing the log —
// and still releases its locks.
func TestEmptyTxnLeavesNoTrace(t *testing.T) {
	m, _, _, l := testEngine(t)
	next, syncs := l.NextLSN(), l.Syncs()
	for _, end := range []struct {
		name   string
		finish func(*Txn) error
		want   Status
	}{
		{"commit", m.Commit, StatusCommitted},
		{"lazy commit", m.CommitLazy, StatusCommitted},
		{"abort", m.Abort, StatusAborted},
	} {
		tx, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Lock(context.Background(), "row", Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := end.finish(tx); err != nil {
			t.Fatalf("%s: %v", end.name, err)
		}
		if tx.Status() != end.want || m.ActiveCount() != 0 {
			t.Fatalf("%s: status %v, %d active", end.name, tx.Status(), m.ActiveCount())
		}
		if err := end.finish(tx); !errors.Is(err, ErrTxnDone) {
			t.Fatalf("%s twice: %v", end.name, err)
		}
		if l.NextLSN() != next || l.Syncs() != syncs {
			t.Fatalf("%s of an empty txn: log tail %d -> %d, syncs %d -> %d",
				end.name, next, l.NextLSN(), syncs, l.Syncs())
		}
	}
	// The exclusive lock every one of them took was released each time;
	// and an on-commit hook alone is enough to make a commit real.
	tx, _ := m.Begin()
	ran := false
	tx.OnCommitted(func() { ran = true })
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if !ran || l.NextLSN() == next || l.Syncs() == syncs {
		t.Fatalf("commit with a hook: ran %v, tail %d, syncs %d", ran, l.NextLSN(), l.Syncs())
	}
}

// TestCheckpointIgnoresEmptyTxn: an open transaction that has logged
// nothing has no ATT entry and holds back neither the recovery-begin
// LSN nor segment truncation; once it logs, it does.
func TestCheckpointIgnoresEmptyTxn(t *testing.T) {
	m, h, pool, l := testEngine(t)
	idle, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Committed traffic, flushed, while the idle transaction stays open.
	for i := 0; i < 20; i++ {
		tx, _ := m.Begin()
		if _, err := h.Insert(tx, []byte("committed row")); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ck, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	att := checkpointATT(t, l, ck)
	if len(att) != 0 {
		t.Fatalf("ATT with only an empty txn open: %+v", att)
	}
	if rb := l.RecoveryBegin(); rb < ck {
		t.Fatalf("recovery begin %d held below the checkpoint %d by an empty txn", rb, ck)
	}

	// Its first record puts it in the table, and from then on its
	// history is kept.
	if _, err := h.Insert(idle, []byte("late first write")); err != nil {
		t.Fatal(err)
	}
	first := idle.LastLSN()
	ck, err = m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	att = checkpointATT(t, l, ck)
	if len(att) != 1 || att[0].ID != idle.ID() || att[0].First != first || att[0].Last != first {
		t.Fatalf("ATT = %+v, want txn %d at %d", att, idle.ID(), first)
	}
	if rb := l.RecoveryBegin(); rb > first {
		t.Fatalf("recovery begin %d passed the open txn's first record %d", rb, first)
	}
	if err := m.Abort(idle); err != nil {
		t.Fatal(err)
	}
	ck, _ = m.Checkpoint()
	if att := checkpointATT(t, l, ck); len(att) != 0 {
		t.Fatalf("ATT after the abort: %+v", att)
	}
}

func checkpointATT(t *testing.T, l *wal.Log, ck wal.LSN) []wal.CkptTxn {
	t.Helper()
	var data wal.CheckpointData
	err := l.Iterate(ck, func(r *wal.Record) error {
		if r.LSN != ck || r.Type != wal.RecCheckpoint {
			t.Fatalf("record at %d is %v, want the checkpoint", r.LSN, r.Type)
		}
		var derr error
		if data, derr = wal.DecodeCheckpoint(r.After); derr != nil {
			return derr
		}
		return io.EOF
	})
	if err != nil {
		t.Fatal(err)
	}
	return data.ATT
}
