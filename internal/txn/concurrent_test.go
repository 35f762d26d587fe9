package txn

import (
	"sync"
	"testing"

	"repro/internal/wal"
)

// TestConcurrentCommitsGroupCommit drives many committers through the
// manager at once (run with -race): every commit must be durable and
// the WAL's group commit must coalesce their flushes.
func TestConcurrentCommitsGroupCommit(t *testing.T) {
	l, err := wal.OpenDir(wal.NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(l, nil)

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx, err := m.Begin()
				if err != nil {
					errCh <- err
					return
				}
				// A transaction that logged nothing commits without a
				// record or a flush; give each one an update to force.
				rec := &wal.Record{Txn: tx.ID(), Type: wal.RecUpdate, PageID: 1, Offset: 64, After: []byte{1}, Undo: wal.UndoNone}
				if _, err := l.Append(rec); err != nil {
					errCh <- err
					return
				}
				tx.Record(rec)
				if err := m.Commit(tx); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if m.ActiveCount() != 0 {
		t.Fatalf("active after commit storm: %d", m.ActiveCount())
	}
	var commits int
	if err := l.Iterate(wal.ZeroLSN, func(r *wal.Record) error {
		if r.Type == wal.RecCommit {
			commits++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if commits != workers*perWorker {
		t.Fatalf("durable commits = %d, want %d", commits, workers*perWorker)
	}
	if l.Syncs() > uint64(commits) {
		t.Fatalf("syncs %d exceed commits %d", l.Syncs(), commits)
	}
}
