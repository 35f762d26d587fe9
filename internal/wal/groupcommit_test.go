package wal

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// countingDir is a MemSegmentDir whose segment devices count Sync calls
// (one counter across segments) and optionally slow them down to widen
// the group-commit window, the way a real fsync would.
type countingDir struct {
	*MemSegmentDir
	syncs     atomic.Uint64
	syncDelay time.Duration
}

func (d *countingDir) OpenSegment(seq uint64) (storage.Device, error) {
	dev, err := d.MemSegmentDir.OpenSegment(seq)
	if err != nil {
		return nil, err
	}
	return &countingDevice{Device: dev, dir: d}, nil
}

type countingDevice struct {
	storage.Device
	dir *countingDir
}

func (d *countingDevice) Sync() error {
	if d.dir.syncDelay > 0 {
		time.Sleep(d.dir.syncDelay)
	}
	d.dir.syncs.Add(1)
	return d.Device.Sync()
}

// TestGroupCommitCoalescesSyncs runs many concurrent committers and
// asserts the log issues fewer device syncs than commits: followers
// ride the leader's sync instead of issuing their own.
func TestGroupCommitCoalescesSyncs(t *testing.T) {
	dev := &countingDir{MemSegmentDir: NewMemSegmentDir(), syncDelay: 200 * time.Microsecond}
	l, err := OpenDir(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	opened := dev.syncs.Load() // Open may sync while initialising

	const committers = 16
	const perCommitter = 12
	var wg sync.WaitGroup
	errCh := make(chan error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				lsn, err := l.Append(&Record{Txn: id, Type: RecCommit})
				if err != nil {
					errCh <- err
					return
				}
				if err := l.Flush(lsn + 1); err != nil {
					errCh <- err
					return
				}
			}
		}(uint64(c + 1))
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	commits := uint64(committers * perCommitter)
	syncs := dev.syncs.Load() - opened
	if syncs >= commits {
		t.Fatalf("group commit issued %d syncs for %d commits — no coalescing", syncs, commits)
	}
	if l.Syncs() != syncs {
		t.Fatalf("Log.Syncs() = %d, device counted %d", l.Syncs(), syncs)
	}
	// Every commit must still be durable.
	var seen int
	if err := l.Iterate(ZeroLSN, func(r *Record) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if uint64(seen) != commits {
		t.Fatalf("iterated %d records, want %d", seen, commits)
	}
}

// TestGroupWindowBatchesBurst checks that a non-zero window batches a
// burst of committers into very few syncs.
func TestGroupWindowBatchesBurst(t *testing.T) {
	dev := &countingDir{MemSegmentDir: NewMemSegmentDir()}
	l, err := OpenDir(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.SetGroupWindow(2*time.Millisecond, 1<<20)
	opened := dev.syncs.Load()

	const committers = 8
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			lsn, _ := l.Append(&Record{Txn: id, Type: RecCommit})
			_ = l.Flush(lsn + 1)
		}(uint64(c + 1))
	}
	wg.Wait()
	if syncs := dev.syncs.Load() - opened; syncs >= committers {
		t.Fatalf("windowed group commit used %d syncs for %d commits", syncs, committers)
	}
}

// TestGroupBytesEndsWindowEarly: once groupBytes are pending, the
// leader must not wait out the rest of the window.
func TestGroupBytesEndsWindowEarly(t *testing.T) {
	l, err := OpenDir(NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	l.SetGroupWindow(500*time.Millisecond, 1)
	lsn, err := l.Append(&Record{Txn: 1, Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := l.Flush(lsn + 1); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("flush took %v despite byte trigger already met", el)
	}
}

// TestEvictFlushClosesWindowEarly: a write-ahead (eviction-path) flush
// arriving while a leader holds a long group window open must close
// the window early instead of waiting it out — the caller holds a
// buffer shard lock.
func TestEvictFlushClosesWindowEarly(t *testing.T) {
	l, err := OpenDir(NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	l.SetGroupWindow(500*time.Millisecond, 0)
	lsn, err := l.Append(&Record{Txn: 1, Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- l.Flush(lsn + 1) }() // windowed leader
	time.Sleep(10 * time.Millisecond)        // let it enter the window
	lsn2, err := l.Append(&Record{Txn: 2, Type: RecUpdate, PageID: 1, Offset: 32,
		Before: []byte("a"), After: []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.BeforeEvict()(1, uint64(lsn2)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("eviction flush waited %v behind a 500ms window", el)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if l.DurableBoundary() <= lsn2 {
		t.Fatal("eviction flush returned before its record was durable")
	}
}

// TestDurableBoundaryPinsDurability pins the durability contract:
// after a crash (reopen of the same device), every record with
// LSN < DurableBoundary survives, and records appended after the last
// flush are gone.
func TestDurableBoundaryPinsDurability(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var durable []LSN
	for i := 0; i < 5; i++ {
		lsn, err := l.Append(&Record{Txn: uint64(i + 1), Type: RecBegin})
		if err != nil {
			t.Fatal(err)
		}
		durable = append(durable, lsn)
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	boundary := l.DurableBoundary()
	for _, lsn := range durable {
		if lsn >= boundary {
			t.Fatalf("flushed record %d not below boundary %d", lsn, boundary)
		}
	}
	// Buffered but never flushed: lost at the crash.
	lost, err := l.Append(&Record{Txn: 99, Type: RecBegin})
	if err != nil {
		t.Fatal(err)
	}
	if lost < boundary {
		t.Fatalf("unflushed record %d below boundary %d", lost, boundary)
	}

	// "Crash": reopen the directory without flushing.
	l2, err := OpenDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[LSN]bool)
	if err := l2.Iterate(ZeroLSN, func(r *Record) error { got[r.LSN] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	for _, lsn := range durable {
		if !got[lsn] {
			t.Fatalf("record %d < boundary %d lost after reopen", lsn, boundary)
		}
	}
	if got[lost] {
		t.Fatalf("record %d >= boundary survived without a flush", lost)
	}
}

// TestFlushErrorRestoresPending: a failed flush must keep the pending
// records so a later flush persists them.
func TestFlushErrorRestoresPending(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := segDev(t, dir, 1)
	lsn, err := l.Append(&Record{Txn: 1, Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	dev.SetFailWrites(true)
	if err := l.Flush(lsn + 1); err == nil {
		t.Fatal("flush must fail with injected write failure")
	}
	if l.DurableBoundary() > lsn {
		t.Fatal("boundary advanced past an unwritten record")
	}
	dev.SetFailWrites(false)
	if err := l.Flush(lsn + 1); err != nil {
		t.Fatal(err)
	}
	var seen int
	if err := l.Iterate(ZeroLSN, func(r *Record) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("iterated %d records after retried flush", seen)
	}
	// Appends made while the log was failing are also recovered.
	dev.SetFailWrites(true)
	a, _ := l.Append(&Record{Txn: 2, Type: RecBegin})
	_ = l.Flush(a + 1) // fails, restores buffer
	b, _ := l.Append(&Record{Txn: 2, Type: RecCommit})
	dev.SetFailWrites(false)
	if err := l.Flush(b + 1); err != nil {
		t.Fatal(err)
	}
	seen = 0
	if err := l.Iterate(ZeroLSN, func(r *Record) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("iterated %d records, want 3", seen)
	}
}

// TestCommitSiblingsGateSkipsWindow checks the Postgres-style
// commit_siblings gate: a lone committer must not sleep out a long
// group window, while a committer with siblings in flight still holds
// it open to batch them.
func TestCommitSiblingsGateSkipsWindow(t *testing.T) {
	l, err := OpenDir(NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	l.SetGroupWindow(500*time.Millisecond, 0)
	siblings := 0
	l.SetCommitSiblings(1, func() int { return siblings })

	// Lone committer: the gate skips the 500ms window entirely.
	lsn, _ := l.Append(&Record{Txn: 1, Type: RecCommit})
	start := time.Now()
	if err := l.Flush(lsn + 1); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("lone committer waited %v behind the gated window", el)
	}
	if l.WindowSkips() == 0 {
		t.Fatal("gate did not record the skipped window")
	}

	// With siblings reported, the window is held open again.
	l.SetGroupWindow(30*time.Millisecond, 0)
	siblings = 3
	lsn, _ = l.Append(&Record{Txn: 2, Type: RecCommit})
	start = time.Now()
	if err := l.Flush(lsn + 1); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("windowed flush with siblings returned in %v, want >= ~30ms", el)
	}
}
