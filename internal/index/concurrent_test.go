package index

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/storage"
)

// newConcurrentTree builds an unlogged tree over a pool large enough
// that latched descents never exhaust frames.
func newConcurrentTree(t *testing.T) *BTree {
	t.Helper()
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(d, 512, buffer.NewLRU())
	tr, _, err := Create(pool, false)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func crid(i int) access.RID {
	return access.RID{Page: storage.PageID(i/100 + 2), Slot: uint16(i % 100)}
}

// TestConcurrentInsertSearch: parallel writers over disjoint key
// stripes, readers over everything; run under -race. Verifies every
// inserted key is found afterwards and the latch-crabbed descents never
// lose an entry across splits.
func TestConcurrentInsertSearch(t *testing.T) {
	tr := newConcurrentTree(t)
	const workers = 8
	const perWorker = 400
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				key := []byte(fmt.Sprintf("key-%02d-%06d", w, i))
				if err := tr.Insert(key, crid(n)); err != nil {
					errs <- fmt.Errorf("insert %s: %w", key, err)
					return
				}
			}
		}()
		// Concurrent readers sweep ranges while writers split leaves.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := tr.Range(nil, nil, func([]byte, access.RID) error { return nil }); err != nil {
					errs <- fmt.Errorf("range: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Len(), uint64(workers*perWorker); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			n := w*perWorker + i
			key := []byte(fmt.Sprintf("key-%02d-%06d", w, i))
			rids, err := tr.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			if len(rids) != 1 || rids[0] != crid(n) {
				t.Fatalf("Search(%s) = %v, want %v", key, rids, crid(n))
			}
		}
	}
}

// TestConcurrentInsertDeleteScan mixes inserts, deletes of previously
// inserted keys, and full scans on overlapping ranges. The final state
// must contain exactly the non-deleted keys.
func TestConcurrentInsertDeleteScan(t *testing.T) {
	tr := newConcurrentTree(t)
	const workers = 6
	const perWorker = 300
	var scans atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				key := []byte(fmt.Sprintf("k%06d", n))
				if err := tr.Insert(key, crid(n)); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 { // delete every third key right back
					ok, err := tr.Delete(key, crid(n))
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						errs <- fmt.Errorf("delete %s: not found", key)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			n := 0
			if err := tr.Range([]byte("k"), nil, func([]byte, access.RID) error { n++; return nil }); err != nil {
				errs <- err
				return
			}
			scans.Add(int64(n))
		}
	}()
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	want := 0
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			n := w*perWorker + i
			key := []byte(fmt.Sprintf("k%06d", n))
			rids, err := tr.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if len(rids) != 0 {
					t.Fatalf("deleted key %s still present: %v", key, rids)
				}
			} else {
				want++
				if len(rids) != 1 {
					t.Fatalf("key %s = %v, want 1 rid", key, rids)
				}
			}
		}
	}
	if got := tr.Len(); got != uint64(want) {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestConcurrentInsertOptimisticFallback hammers the optimistic insert
// descent: writers insert interleaved keys (neighbouring keys come from
// different goroutines), so leaf splits constantly bump interior version
// counters under concurrent shared-latch descents and force the
// re-validate + exclusive-crab fallback. The tree must come out
// complete; the fallback counter proves both paths ran (a full target
// leaf is never "safe", so splits make fallbacks deterministic even on
// one core).
func TestConcurrentInsertOptimisticFallback(t *testing.T) {
	tr := newConcurrentTree(t)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := i*workers + w
				key := []byte(fmt.Sprintf("fb%07d", n))
				if err := tr.Insert(key, crid(n)); err != nil {
					errs <- fmt.Errorf("insert %s: %w", key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Len(), uint64(workers*perWorker); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for n := 0; n < workers*perWorker; n++ {
		key := []byte(fmt.Sprintf("fb%07d", n))
		rids, err := tr.Search(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 1 || rids[0] != crid(n) {
			t.Fatalf("Search(%s) = %v, want %v", key, rids, crid(n))
		}
	}
	if tr.DescentFallbacks() == 0 {
		t.Fatal("optimistic descent never fell back; splits should have forced it")
	}
}
