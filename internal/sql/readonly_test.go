package sql

import (
	"context"
	"testing"
	"time"
)

// TestReadOnlyStatementsLeaveTheLogAlone: a statement or session that
// changed nothing appends no record and forces no sync — and still takes
// its table's shared lock and gives it back.
func TestReadOnlyStatementsLeaveTheLogAlone(t *testing.T) {
	e, l := newEngineAndLog(t)
	seedUsers(t, e)
	next, syncs := l.NextLSN(), l.Syncs()
	untouched := func(what string) {
		t.Helper()
		if l.NextLSN() != next || l.Syncs() != syncs {
			t.Fatalf("%s: log tail %d -> %d, syncs %d -> %d", what, next, l.NextLSN(), syncs, l.Syncs())
		}
	}

	for i := 0; i < 1000; i++ {
		if got := queryInts(t, e, "SELECT COUNT(*) FROM users WHERE age = 25"); got[0] != 2 {
			t.Fatalf("count = %v", got)
		}
	}
	untouched("1,000 auto-commit SELECTs")

	mustExec(t, e, "BEGIN")
	mustExec(t, e, "SELECT name FROM users WHERE id = 3")
	mustExec(t, e, "COMMIT")
	untouched("BEGIN … SELECT … COMMIT")
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "SELECT name FROM users")
	mustExec(t, e, "ROLLBACK")
	untouched("BEGIN … SELECT … ROLLBACK")

	// An UPDATE that matches nothing wrote nothing either.
	mustExec(t, e, "UPDATE users SET age = 1 WHERE id = 99")
	untouched("UPDATE of zero rows")

	// The first real write is logged and forced as before.
	mustExec(t, e, "UPDATE users SET age = 26 WHERE id = 2")
	if l.NextLSN() == next || l.Syncs() != syncs+1 {
		t.Fatalf("a real UPDATE: log tail %d -> %d, syncs %d -> %d", next, l.NextLSN(), syncs, l.Syncs())
	}
}

// TestReadOnlyTxnStillLocks: the shared table lock of a read-only
// session holds a writer off until the session ends, is released by the
// record-less commit, and a stream of auto-commit SELECTs neither starves
// a writer nor sees one of its statements half applied.
func TestReadOnlyTxnStillLocks(t *testing.T) {
	reader, _ := newEngineAndLog(t)
	writer := NewEngine(reader.fm, reader.pool, reader.cat, reader.txns, reader.wal)
	writer.SetUndo(reader.undoex)
	ctx := context.Background()
	mustExec(t, reader, "CREATE TABLE t (a INT)")

	mustExec(t, reader, "BEGIN")
	mustExec(t, reader, "SELECT COUNT(*) FROM t")
	done := make(chan error, 1)
	go func() {
		_, err := writer.Execute(ctx, "INSERT INTO t VALUES (1), (2)")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("INSERT ran inside a reader's open session: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	mustExec(t, reader, "COMMIT") // logs nothing, must still unlock
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Readers in a tight loop beside a writer inserting two rows per
	// statement: every count is even, and the writer finishes.
	stop := make(chan struct{})
	odd := make(chan int64, 1)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r, err := reader.Execute(ctx, "SELECT COUNT(*) FROM t")
			if err != nil || r.Rows[0][0].Int%2 != 0 {
				select {
				case odd <- r.Rows[0][0].Int:
				default:
				}
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := writer.Execute(ctx, "INSERT INTO t VALUES (3), (4)"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-readerDone
	select {
	case n := <-odd:
		t.Fatalf("a SELECT saw %d rows: half an INSERT", n)
	default:
	}
	if got := queryInts(t, reader, "SELECT COUNT(*) FROM t"); got[0] != 402 {
		t.Fatalf("count = %v, want 402", got)
	}
}
