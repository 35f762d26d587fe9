package sbdms

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/storage"
	"repro/internal/txn"
)

// The isolation suite pins what a sequence of KV operations
// guarantees. Every operation is its own transaction and every scan
// reads one MVCC snapshot (TestMVCCSnapshotConsistentCut shows it never
// tears an atomic batch), so a sequence of operations runs at read
// committed in PostgreSQL's sense: each one sees every commit
// acknowledged before it began. The anomalies read committed admits
// therefore span two operations — a phantom between two scans, write
// skew across a scan and a put, a lost update across an unlocked get
// and a put — and the suite shows each one happening. A read-modify-
// write that holds its key lock to commit cannot lose an update. Run
// under -race; `make isolation` runs it at GOMAXPROCS 1 and 4.

// openIsoDB opens a WAL-enabled in-memory DB.
func openIsoDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{
		Device:       storage.NewMemDevice(),
		Granularity:  Monolithic,
		BufferFrames: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// --- phantom reads (two scans) -----------------------------------------

// TestIsolationPhantomReadCommitted: two scans of the same range with a
// committed insert between them differ — the classic phantom, which two
// one-op transactions admit.
func TestIsolationPhantomReadCommitted(t *testing.T) {
	db := openIsoDB(t)
	defer db.Close(context.Background())
	for i := 0; i < 10; i++ {
		if err := db.Put(ctx, fmt.Sprintf("rng-%02d", i*2), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	first, err := db.ScanKeys(ctx, "rng-", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(ctx, "rng-05", []byte("phantom")); err != nil {
		t.Fatal(err)
	}
	second, err := db.ScanKeys(ctx, "rng-", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first)+1 {
		t.Fatalf("phantom not observed: first=%d second=%d", len(first), len(second))
	}
}

// --- write skew across a scanned range ----------------------------------

// TestIsolationWriteSkew models the textbook constraint "at most one
// on-call guard": each client scans the guard range and inserts its own
// guard key only if the range is empty. Both clients are forced through
// the scan before either writes. Scans take no locks and the scan and
// the put are two transactions, so both see an empty range and both
// insert: serially at most one insert could happen.
func TestIsolationWriteSkew(t *testing.T) {
	t.Run("read-committed-observes", func(t *testing.T) {
		db := openIsoDB(t)
		defer db.Close(context.Background())
		skew := 0
		for r := 0; r < 20 && skew == 0; r++ {
			prefix := fmt.Sprintf("wsk-r%03d-", r)
			var barrier, done sync.WaitGroup
			barrier.Add(2)
			done.Add(2)
			for g := 0; g < 2; g++ {
				g := g
				go func() {
					defer done.Done()
					keys, err := db.ScanKeys(ctx, prefix, 100)
					if err != nil {
						t.Error(err)
					}
					count := 0
					for _, k := range keys {
						if strings.HasPrefix(k, prefix) {
							count++
						}
					}
					barrier.Done()
					barrier.Wait() // both scanned before either writes
					if count == 0 {
						if err := db.Put(ctx, fmt.Sprintf("%sguard-%d", prefix, g), []byte("v")); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			done.Wait()
			keys, err := db.ScanKeys(ctx, prefix, 100)
			if err != nil {
				t.Fatal(err)
			}
			guards := 0
			for _, k := range keys {
				if strings.HasPrefix(k, prefix) {
					guards++
				}
			}
			if guards > 1 {
				skew++
			}
		}
		if skew == 0 {
			t.Fatal("read-committed scan+put never produced write skew; the anomaly should be observable")
		}
	})
}

// --- lost updates -------------------------------------------------------

// TestIsolationLostUpdate: concurrent read-modify-write increments of
// one counter key. Unlocked get-then-put loses updates; a transaction
// that keeps its read lock and upgrades cannot (upgrades that deadlock
// abort and retry — the increment is never silently dropped). The arms
// are named after the isolation of the read-modify-write itself: a Get
// then a Put is two read-committed operations, a transaction that holds
// its key lock to commit is serializable (strict two-phase locking).
func TestIsolationLostUpdate(t *testing.T) {
	const writers, increments = 4, 25

	readCounter := func(t *testing.T, db *DB) int {
		v, err := db.Get(ctx, "cnt")
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.Atoi(string(v))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	t.Run("read-committed-observes", func(t *testing.T) {
		db := openIsoDB(t)
		defer db.Close(context.Background())
		lost := false
		for round := 0; round < 10 && !lost; round++ {
			if err := db.Put(ctx, "cnt", []byte("0")); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < increments; i++ {
						v, err := db.Get(ctx, "cnt")
						if err != nil {
							t.Error(err)
							return
						}
						n, _ := strconv.Atoi(string(v))
						runtime.Gosched() // widen the read-to-write window
						if err := db.Put(ctx, "cnt", []byte(strconv.Itoa(n+1))); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if readCounter(t, db) < writers*increments {
				lost = true
			}
		}
		if !lost {
			t.Fatal("unlocked read-modify-write never lost an update across 10 rounds")
		}
	})

	t.Run("serializable-prevents", func(t *testing.T) {
		db := openIsoDB(t)
		defer db.Close(context.Background())
		if err := db.Put(ctx, "cnt", []byte("0")); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var conflicts atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < increments; i++ {
					for { // retry deadlock victims: 2PL guarantees no LOST updates, not no conflicts
						tx, err := db.kv.txns.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						abortRetry := func(err error) bool {
							_ = db.kv.txns.Abort(tx)
							if IsConflict(conflictWrap(err)) {
								conflicts.Add(1)
								return true
							}
							t.Error(err)
							return false
						}
						if err := tx.Lock(ctx, kvRes("cnt"), txn.Shared); err != nil {
							if abortRetry(err) {
								continue
							}
							return
						}
						rids, err := db.kv.idx.Search(db.kv.key("cnt"))
						if err != nil || len(rids) == 0 {
							t.Errorf("counter vanished: %v", err)
							_ = db.kv.txns.Abort(tx)
							return
						}
						cell, err := db.kv.heap.Get(rids[0])
						if err != nil {
							t.Error(err)
							_ = db.kv.txns.Abort(tx)
							return
						}
						_, body, err := access.DecodeVersion(cell) // committed: the S lock keeps writers out
						if err != nil {
							t.Error(err)
							_ = db.kv.txns.Abort(tx)
							return
						}
						_, v, err := decodeKV(body)
						if err != nil {
							t.Error(err)
							_ = db.kv.txns.Abort(tx)
							return
						}
						n, _ := strconv.Atoi(string(v))
						// Upgrade read lock to write lock: the other
						// reader-upgrader deadlocks and retries.
						if err := tx.Lock(ctx, kvRes("cnt"), txn.Exclusive); err != nil {
							if abortRetry(err) {
								continue
							}
							return
						}
						if err := db.kv.putTx(tx, "cnt", []byte(strconv.Itoa(n+1))); err != nil {
							if abortRetry(err) {
								continue
							}
							return
						}
						if err := db.kv.txns.Commit(tx); err != nil {
							t.Error(err)
							return
						}
						break
					}
				}
			}()
		}
		wg.Wait()
		if got := readCounter(t, db); got != writers*increments {
			t.Fatalf("lost updates under held key locks: counter = %d, want %d (%d conflicts retried)",
				got, writers*increments, conflicts.Load())
		}
		t.Logf("key-locked: %d increments, %d upgrade deadlocks retried", writers*increments, conflicts.Load())
	})
}
