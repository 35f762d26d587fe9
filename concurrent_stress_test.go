package sbdms

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// openStressDB opens a WAL-enabled in-memory DB sized for concurrency
// (a pool large enough that latched descents never starve for frames).
func openStressDB(t *testing.T, dataDev storage.Device, logDir wal.SegmentDir) *DB {
	t.Helper()
	db, err := Open(Options{
		Device:          dataDev,
		LogDir:          logDir,
		Granularity:     Monolithic,
		BufferFrames:    256,
		WALSegmentBytes: crashSegmentBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestKVConcurrentDisjointStripes: parallel workers over disjoint key
// stripes doing put/get/delete while scanners sweep the whole range;
// run under -race. Each worker verifies its own reads inline; the
// final state must match every worker's last committed action.
func TestKVConcurrentDisjointStripes(t *testing.T) {
	db := openStressDB(t, storage.NewMemDevice(), wal.NewMemSegmentDir())
	defer db.Close(context.Background())

	const workers = 8
	const keysPer = 40
	const opsPer = 300
	finals := make([]map[string]string, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers+2)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			live := map[string]string{}
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("w%02d-key-%03d", w, rng.Intn(keysPer))
				switch {
				case rng.Intn(10) < 6:
					v := fmt.Sprintf("v-%d-%d-%s", w, i, strings.Repeat("x", rng.Intn(60)))
					if err := db.Put(ctx, k, []byte(v)); err != nil {
						errs <- fmt.Errorf("put %s: %w", k, err)
						return
					}
					live[k] = v
				case rng.Intn(2) == 0:
					if _, ok := live[k]; ok {
						if err := db.DeleteKey(ctx, k); err != nil {
							errs <- fmt.Errorf("delete %s: %w", k, err)
							return
						}
						delete(live, k)
					}
				default:
					got, err := db.Get(ctx, k)
					want, ok := live[k]
					if ok && (err != nil || string(got) != want) {
						errs <- fmt.Errorf("get %s = %q, %v; want %q", k, got, err, want)
						return
					}
					if !ok && err == nil {
						errs <- fmt.Errorf("get %s returned a value for a deleted key", k)
						return
					}
				}
			}
			finals[w] = live
		}()
	}
	// Scanners sweep concurrently; they must never error, whatever
	// keys come and go beneath them.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := db.ScanKeys(ctx, "", 10_000); err != nil {
					errs <- fmt.Errorf("scan: %w", err)
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

	want := 0
	for w := range finals {
		want += len(finals[w])
		for k, v := range finals[w] {
			got, err := db.Get(ctx, k)
			if err != nil || string(got) != v {
				t.Fatalf("final Get(%s) = %q, %v; want %q", k, got, err, v)
			}
		}
	}
	if got := kvLen(t, db); got != uint64(want) {
		t.Fatalf("KVLen = %d, want %d", got, want)
	}
}

// TestKVConcurrentSharedKeys hammers a tiny shared key set from many
// goroutines: maximal lock conflict. Every operation must either
// succeed or fail with a documented error (not-found or retryable
// conflict), and the engine must stay consistent.
func TestKVConcurrentSharedKeys(t *testing.T) {
	db := openStressDB(t, storage.NewMemDevice(), wal.NewMemSegmentDir())
	defer db.Close(context.Background())

	const workers = 8
	const sharedKeys = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("hot-%d", rng.Intn(sharedKeys))
				var err error
				switch rng.Intn(4) {
				case 0:
					err = db.Put(ctx, k, []byte(fmt.Sprintf("w%d-%d", w, i)))
				case 1:
					_, err = db.Get(ctx, k)
				case 2:
					err = db.DeleteKey(ctx, k)
				default:
					_, err = db.ScanKeys(ctx, "hot-", sharedKeys+1)
				}
				if err != nil && !IsKeyNotFound(err) && !IsConflict(err) {
					errs <- fmt.Errorf("w%d op %d on %s: %w", w, i, k, err)
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
	// Consistency: Len agrees with an exhaustive scan.
	keys, err := db.ScanKeys(ctx, "", 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := kvLen(t, db); got != uint64(len(keys)) {
		t.Fatalf("KVLen = %d, scan found %d keys (%v)", got, len(keys), keys)
	}
	// Survives a clean restart with the same state.
	for _, k := range keys {
		if _, err := db.Get(ctx, k); err != nil {
			t.Fatalf("surviving key %s unreadable: %v", k, err)
		}
	}
}

// TestKVBatchConflictsResolve: concurrent multi-key batches over
// overlapping keys. Lock acquisition in sorted key order means batches
// cannot deadlock each other — every batch must succeed outright.
func TestKVBatchConflictsResolve(t *testing.T) {
	db := openStressDB(t, storage.NewMemDevice(), wal.NewMemSegmentDir())
	defer db.Close(context.Background())

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7 * (w + 1))))
			for i := 0; i < 50; i++ {
				n := 3 + rng.Intn(5)
				keys := make([]string, n)
				vals := make([][]byte, n)
				for j := 0; j < n; j++ {
					keys[j] = fmt.Sprintf("shared-%02d", rng.Intn(16))
					vals[j] = []byte(fmt.Sprintf("b%d-%d-%d", w, i, j))
				}
				if err := db.PutBatch(ctx, keys, vals); err != nil {
					errs <- fmt.Errorf("w%d batch %d: %w", w, i, err)
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
}

// TestKVLockWaitContextCancellation: a write blocked behind a
// conflicting transaction returns the context error instead of waiting
// forever — the lock-wait cancellation path end to end — while reads,
// which lock nothing, never wait behind it.
func TestKVLockWaitContextCancellation(t *testing.T) {
	db := openStressDB(t, storage.NewMemDevice(), wal.NewMemSegmentDir())
	defer db.Close(context.Background())
	if err := db.Put(ctx, "k", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	// Park a foreign exclusive lock on the key, as a long transaction
	// would.
	blocker := db.Txns().ReserveID()
	if err := db.Txns().Locks().Acquire(context.Background(), blocker, "kv/k", txn.Exclusive); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := db.Put(short, "k", []byte("v1"))
	if err == nil || short.Err() == nil {
		t.Fatalf("blocked put returned %v before cancellation", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation not observed promptly")
	}
	// Reads lock nothing: a Get of the X-locked key itself, a Get of an
	// absent neighbour and a scan all return at once, without waiting
	// behind the blocker.
	ctx3, cancel3 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel3()
	if got, err := db.Get(ctx3, "k"); err != nil || string(got) != "v0" {
		t.Fatalf("Get of the X-locked key = %q, %v; want v0 without waiting", got, err)
	}
	if _, err := db.Get(ctx3, "j"); !IsKeyNotFound(err) {
		t.Fatalf("Get of an absent key beside a locked one = %v, want not-found", err)
	}
	if keys, err := db.ScanKeys(ctx3, "", 10); err != nil || len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("ScanKeys beside a locked key = %q, %v; want [k]", keys, err)
	}
	db.Txns().Locks().ReleaseAll(blocker)
	// The engine is unharmed: the aborted put left no trace.
	got, err := db.Get(ctx, "k")
	if err != nil || string(got) != "v0" {
		t.Fatalf("Get after cancelled put = %q, %v", got, err)
	}
}
