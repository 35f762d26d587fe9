package sbdms

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
)

// The isolation-anomaly suite: each test provokes one classic anomaly —
// torn atomic batches / phantoms, write skew across a scanned range,
// lost updates — and asserts it OCCURS at read-committed and is
// IMPOSSIBLE at serializable (either the serial outcome or a retryable
// conflict). Run under -race; `make isolation` runs it at GOMAXPROCS 1
// and 4.

// openIsoDB opens a WAL-enabled in-memory DB at the given scan
// isolation.
func openIsoDB(t *testing.T, iso ScanIsolation) *DB {
	t.Helper()
	db, err := Open(Options{
		Device:        storage.NewMemDevice(),
		Granularity:   Monolithic,
		BufferFrames:  256,
		ScanIsolation: iso,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// --- torn atomic batches (phantoms within one scan) ---------------------

// runTornBatchRounds drives an atomic PutBatch — its first and last
// keys placed at opposite ends of a filler range, with per-round middle
// keys between, so the batch takes long enough for a scan to land
// inside it — against a concurrent full-range scanner. A scan that
// reports one endpoint of the batch but not the other has read a state
// no serial execution produces (an uncommitted prefix, or a torn view
// of the committed batch). Returns (torn, clean) scan counts over at
// most `rounds` rounds, stopping early once stopAt torn scans were
// seen.
func runTornBatchRounds(t *testing.T, db *DB, rounds, stopAt int) (torn, clean int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if err := db.Put(ctx, fmt.Sprintf("ph-m-%04d", i), []byte("filler")); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds && torn < stopAt; r++ {
		lo := fmt.Sprintf("ph-a-%06d", r) // sorts before every filler
		hi := fmt.Sprintf("ph-z-%06d", r) // sorts after every filler
		keys := []string{lo}
		for i := 0; i < 30; i++ {
			keys = append(keys, fmt.Sprintf("ph-n-%06d-%02d", r, i))
		}
		keys = append(keys, hi)
		vals := make([][]byte, len(keys))
		for i := range vals {
			vals[i] = []byte("v")
		}
		started := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			close(started)
			for {
				err := db.PutBatch(ctx, keys, vals)
				if err == nil {
					return
				}
				if !IsConflict(err) {
					t.Errorf("PutBatch: %v", err)
					return
				}
			}
		}()
		<-started
		for scanning := true; scanning; {
			select {
			case <-done:
				scanning = false // one final scan below observes the commit
			default:
			}
			keys, err := db.ScanKeys(ctx, "ph-", 100000)
			if err != nil {
				if IsConflict(err) {
					continue // serializable deadlock victim: retry
				}
				t.Fatal(err)
			}
			sawLo, sawHi := false, false
			for _, k := range keys {
				if k == lo {
					sawLo = true
				}
				if k == hi {
					sawHi = true
				}
			}
			if sawLo != sawHi {
				torn++
			} else {
				clean++
			}
		}
	}
	return torn, clean
}

// TestIsolationTornBatchReadCommitted: without key locks a scan can
// observe one half of an atomic batch — either an uncommitted insert
// (dirty read) or a torn view of the committed pair (phantom). The
// anomaly must be OBSERVABLE: if read-committed scans were accidentally
// serialized, this test fails and the isolation knob is meaningless.
func TestIsolationTornBatchReadCommitted(t *testing.T) {
	db := openIsoDB(t, ReadCommitted)
	defer db.Close(context.Background())
	torn, _ := runTornBatchRounds(t, db, 500, 3)
	if torn == 0 {
		t.Fatal("read-committed scans never observed a torn atomic batch; the anomaly this knob exists for is gone")
	}
	t.Logf("read-committed: %d torn scans observed", torn)
}

// TestIsolationTornBatchSerializable: next-key locking makes every scan
// an atomic snapshot — across every interleaving, a scan sees both keys
// of the pair or neither.
func TestIsolationTornBatchSerializable(t *testing.T) {
	db := openIsoDB(t, Serializable)
	defer db.Close(context.Background())
	torn, clean := runTornBatchRounds(t, db, 40, 1)
	if torn != 0 {
		t.Fatalf("serializable scan observed %d torn atomic batches", torn)
	}
	if clean == 0 {
		t.Fatal("no scans completed")
	}
	t.Logf("serializable: %d scans, all atomic", clean)
}

// --- phantom reads (repeatable range) -----------------------------------

// TestIsolationPhantomReadCommitted: two scans of the same range with a
// committed insert between them differ — the classic phantom. This is
// expected (and demonstrated deterministically) at read-committed.
func TestIsolationPhantomReadCommitted(t *testing.T) {
	db := openIsoDB(t, ReadCommitted)
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

// TestIsolationPhantomSerializable: a reader that keeps its scan locks
// (a read-only transaction over the range) sees the identical result on
// a second scan; the conflicting writer blocks until the reader is
// done, then lands.
func TestIsolationPhantomSerializable(t *testing.T) {
	db := openIsoDB(t, Serializable)
	defer db.Close(context.Background())
	for i := 0; i < 10; i++ {
		if err := db.Put(ctx, fmt.Sprintf("rng-%02d", i*2), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	owner := db.kv.txns.ReserveID() // one lock owner = one reading transaction
	first, err := db.kv.scanKeysLocked(ctx, owner, "rng-", 1000)
	if err != nil {
		t.Fatal(err)
	}
	// A writer inserting into the scanned range must block on the gap.
	wrote := make(chan error, 1)
	go func() { wrote <- db.Put(ctx, "rng-05", []byte("phantom")) }()
	select {
	case err := <-wrote:
		t.Fatalf("writer landed inside a range a transaction is still reading: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	second, err := db.kv.scanKeysLocked(ctx, owner, "rng-", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("phantom at serializable: first=%d second=%d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("range changed under scan locks: %q vs %q", first[i], second[i])
		}
	}
	db.kv.locks.ReleaseAll(owner) // end of the reading transaction
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatalf("writer after reader finished: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer never unblocked after scan locks were released")
	}
}

// TestIsolationSerializableEmptyKey: "" is a legal key; a serializable
// scan must return and lock it like any other (regression: the
// restart-skip cursor used "" as a sentinel and silently dropped it).
func TestIsolationSerializableEmptyKey(t *testing.T) {
	db := openIsoDB(t, Serializable)
	defer db.Close(context.Background())
	for _, k := range []string{"", "a", "b"} {
		if err := db.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := db.ScanKeys(ctx, "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "" || keys[1] != "a" || keys[2] != "b" {
		t.Fatalf("serializable scan = %q, want [\"\" \"a\" \"b\"]", keys)
	}
}

// TestIsolationGetMissGapLock: a serializable Get of an ABSENT key
// must take the same next-key lock a one-key scan starting there
// would — S on the miss position's successor, or on the end-of-index
// sentinel when the key sorts past everything. Regression: Get used
// to lock only the key itself, so "Get(k) → not found" held nothing
// that conflicts with an in-flight writer of the gap, and the miss
// was not a repeatable read.
func TestIsolationGetMissGapLock(t *testing.T) {
	t.Run("serializable-miss-waits-on-gap", func(t *testing.T) {
		db := openIsoDB(t, Serializable)
		defer db.Close(context.Background())
		for _, k := range []string{"a", "c"} {
			if err := db.Put(ctx, k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		// Model an in-flight writer holding the gap: X on the successor
		// of absent "b", under an owner id that never commits here.
		ctx := context.Background()
		owner := db.kv.txns.ReserveID()
		if err := db.kv.locks.Acquire(ctx, owner, kvRes("c"), txn.Exclusive); err != nil {
			t.Fatal(err)
		}
		short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		if _, err := db.Get(short, "b"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Get of absent key did not wait on the miss gap: %v", err)
		}
		// Same at the right edge: absent "zz" has no successor, so the
		// end-of-index sentinel seals the miss.
		if err := db.kv.locks.Acquire(ctx, owner, kvEOFRes, txn.Exclusive); err != nil {
			t.Fatal(err)
		}
		short2, cancel2 := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel2()
		if _, err := db.Get(short2, "zz"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Get past the last key did not wait on the eof sentinel: %v", err)
		}
		db.kv.locks.ReleaseAll(owner)
		// Gap free again: both misses complete and still report not-found.
		if _, err := db.Get(ctx, "b"); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("Get(b) = %v, want ErrKeyNotFound", err)
		}
		if _, err := db.Get(ctx, "zz"); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("Get(zz) = %v, want ErrKeyNotFound", err)
		}
	})
	t.Run("miss-gap-lock-blocks-insert", func(t *testing.T) {
		db := openIsoDB(t, Serializable)
		defer db.Close(context.Background())
		for _, k := range []string{"a", "c"} {
			if err := db.Put(ctx, k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		// Take exactly the lock a serializable Get("b") miss takes, and
		// hold it: an insert of "b" must block on its instant next-key
		// X of the same successor until the reader's locks drain.
		ctx := context.Background()
		reader := db.kv.txns.ReserveID()
		if err := db.kv.lockMissGap(ctx, reader, "b"); err != nil {
			t.Fatal(err)
		}
		if _, held := db.kv.locks.Held(reader, kvRes("c")); !held {
			t.Fatal("miss gap lock did not land on the successor")
		}
		inserted := make(chan error, 1)
		go func() { inserted <- db.Put(ctx, "b", []byte("v")) }()
		select {
		case err := <-inserted:
			t.Fatalf("insert crossed a gap a Get miss had locked: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		db.kv.locks.ReleaseAll(reader)
		select {
		case err := <-inserted:
			if err != nil {
				t.Fatalf("insert after release: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("insert never unblocked after the miss gap lock was released")
		}
	})
	t.Run("read-committed-miss-does-not-block", func(t *testing.T) {
		db := openIsoDB(t, ReadCommitted)
		defer db.Close(context.Background())
		for _, k := range []string{"a", "c"} {
			if err := db.Put(ctx, k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		owner := db.kv.txns.ReserveID()
		if err := db.kv.locks.Acquire(ctx, owner, kvRes("c"), txn.Exclusive); err != nil {
			t.Fatal(err)
		}
		defer db.kv.locks.ReleaseAll(owner)
		short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		if _, err := db.Get(short, "b"); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("read-committed miss must not take gap locks: %v", err)
		}
	})
}

// TestIsolationInsertKeepsScanLockOnSuccessor: a transaction that
// scanned a range and then inserts into it upgrades its own S lock on
// the new key's successor for the instant next-key check. That upgrade
// must NOT be released after the insert — the transaction's read lock
// on the successor rides on it, and releasing would let a concurrent
// writer rewrite a key the transaction already read (regression: the
// instant-release path destroyed upgraded locks).
func TestIsolationInsertKeepsScanLockOnSuccessor(t *testing.T) {
	db := openIsoDB(t, Serializable)
	defer db.Close(context.Background())
	for _, k := range []string{"a", "b", "c"} {
		if err := db.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	tx, err := db.kv.txns.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.kv.scanKeysLocked(ctx, tx.ID(), "a", 10); err != nil {
		t.Fatal(err)
	}
	// Insert inside the scanned range: successor of "aa" is "b", which
	// the scan S-locked — the hook upgrades it in place.
	if err := db.kv.locks.Acquire(ctx, tx.ID(), kvRes("aa"), txn.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := db.kv.putTx(ctx, tx, "aa", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A concurrent delete of the successor must stay blocked until the
	// transaction commits.
	deleted := make(chan error, 1)
	go func() { deleted <- db.DeleteKey(ctx, "b") }()
	select {
	case err := <-deleted:
		t.Fatalf("writer touched a key inside a live transaction's scanned range: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := db.kv.txns.Commit(tx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-deleted:
		if err != nil {
			t.Fatalf("delete after commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delete never unblocked after the transaction committed")
	}
}

// TestIsolationAppendDowngradeNoPhantom pins the append gap-lock
// downgrade's two obligations at once. Safety: while a serializable
// scan holds the end-of-index sentinel, an appender past the right edge
// stays blocked; and once its insert lands (still uncommitted), any new
// scan of the range blocks on the new key's own commit-duration X lock
// — no phantom opens either before or after the downgrade point.
// Liveness: the awaited sentinel lock is released the moment the entry
// is visible in the leaf, so a second appender lands while the first is
// still uncommitted.
func TestIsolationAppendDowngradeNoPhantom(t *testing.T) {
	db := openIsoDB(t, Serializable)
	defer db.Close(context.Background())
	if err := db.Put(ctx, "zz-a", []byte("v0")); err != nil {
		t.Fatal(err)
	}

	// A serializable scan runs off the right edge: it S-locks
	// "zz-a" and seals the end of the index with the sentinel.
	scanOwner := db.kv.txns.ReserveID()
	keys, err := db.kv.scanKeysLocked(ctx, scanOwner, "zz-", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "zz-a" {
		t.Fatalf("preload scan = %v, want [zz-a]", keys)
	}

	// Appender past everything: must block behind the scan's
	// sentinel lock.
	tx, err := db.kv.txns.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.kv.locks.Acquire(ctx, tx.ID(), kvRes("zz-b"), txn.Exclusive); err != nil {
		t.Fatal(err)
	}
	inserted := make(chan error, 1)
	go func() { inserted <- db.kv.putTx(ctx, tx, "zz-b", []byte("v1")) }()
	select {
	case err := <-inserted:
		t.Fatalf("append crossed a scanned end-of-index gap: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The scan ends; the append lands but does NOT commit.
	db.kv.locks.ReleaseAll(scanOwner)
	select {
	case err := <-inserted:
		if err != nil {
			t.Fatalf("append after scan released: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append never unblocked after the scan released its locks")
	}
	if _, held := db.kv.locks.Held(tx.ID(), kvEOFRes); held {
		t.Fatal("awaited sentinel gap lock still held after the entry became visible")
	}

	// No phantom after the downgrade: a new scan must block on the
	// uncommitted key's own lock, not skip past it.
	scanned := make(chan []string, 1)
	go func() {
		ks, err := db.ScanKeys(ctx, "zz-", 100)
		if err != nil {
			t.Errorf("scan across uncommitted append: %v", err)
		}
		scanned <- ks
	}()
	select {
	case ks := <-scanned:
		t.Fatalf("scan read across an uncommitted append: %v", ks)
	case <-time.After(50 * time.Millisecond):
	}

	// Liveness: a second appender past the first one.
	appended := make(chan error, 1)
	go func() { appended <- db.Put(ctx, "zz-c", []byte("v2")) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("second append: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second appender serialized behind an uncommitted appender's released gap lock")
	}

	if err := db.kv.txns.Commit(tx); err != nil {
		t.Fatal(err)
	}
	var ks []string
	select {
	case ks = <-scanned:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked scan never completed after commit")
	}
	saw := map[string]bool{}
	for _, k := range ks {
		if saw[k] {
			t.Fatalf("scan returned duplicate key %q: %v", k, ks)
		}
		saw[k] = true
	}
	if !saw["zz-a"] || !saw["zz-b"] {
		t.Fatalf("scan after commit = %v, want zz-a and zz-b present", ks)
	}
	final, err := db.ScanKeys(ctx, "zz-", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 3 || final[0] != "zz-a" || final[1] != "zz-b" || final[2] != "zz-c" {
		t.Fatalf("final scan = %v, want [zz-a zz-b zz-c]", final)
	}
}

// --- write skew across a scanned range ----------------------------------

// TestIsolationWriteSkew models the textbook constraint "at most one
// on-call guard": each transaction scans the guard range and inserts
// its own guard key only if the range is empty. Both transactions are
// forced through the scan phase before either writes (the worst-case
// interleaving). Serially at most one insert can happen; write skew is
// both committing their inserts.
func TestIsolationWriteSkew(t *testing.T) {
	t.Run("read-committed-observes", func(t *testing.T) {
		db := openIsoDB(t, ReadCommitted)
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

	t.Run("serializable-prevents", func(t *testing.T) {
		db := openIsoDB(t, Serializable)
		defer db.Close(context.Background())
		ctx := context.Background()
		for r := 0; r < 20; r++ {
			prefix := fmt.Sprintf("wsk-r%03d-", r)
			var barrier, done sync.WaitGroup
			barrier.Add(2)
			done.Add(2)
			for g := 0; g < 2; g++ {
				g := g
				go func() {
					defer done.Done()
					// One real transaction: scan locks and the write all
					// belong to tx and release at commit/abort.
					tx, err := db.kv.txns.Begin()
					if err != nil {
						t.Error(err)
						barrier.Done()
						return
					}
					keys, err := db.kv.scanKeysLocked(ctx, tx.ID(), prefix, 100)
					barrier.Done()
					if err != nil {
						_ = db.kv.txns.Abort(tx)
						return
					}
					count := 0
					for _, k := range keys {
						if strings.HasPrefix(k, prefix) {
							count++
						}
					}
					barrier.Wait()
					if count > 0 {
						_ = db.kv.txns.Abort(tx) // nothing to do
						return
					}
					gk := fmt.Sprintf("%sguard-%d", prefix, g)
					if err := db.kv.locks.Acquire(ctx, tx.ID(), kvRes(gk), txn.Exclusive); err != nil {
						_ = db.kv.txns.Abort(tx) // deadlock victim: serial outcome preserved
						return
					}
					if err := db.kv.putTx(ctx, tx, gk, []byte("v")); err != nil {
						_ = db.kv.txns.Abort(tx)
						return
					}
					if err := db.kv.txns.Commit(tx); err != nil {
						t.Error(err)
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
				t.Fatalf("round %d: write skew at serializable — %d guards committed", r, guards)
			}
		}
	})
}

// --- lost updates -------------------------------------------------------

// TestIsolationLostUpdate: concurrent read-modify-write increments of
// one counter key. Unlocked get-then-put loses updates; a transaction
// that keeps its read lock and upgrades cannot (upgrades that deadlock
// abort and retry — the increment is never silently dropped).
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
		db := openIsoDB(t, ReadCommitted)
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
		db := openIsoDB(t, Serializable)
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
						_, body, err := db.kv.headVersion(rids[0])
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
						if err := db.kv.putTx(ctx, tx, "cnt", []byte(strconv.Itoa(n+1))); err != nil {
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
			t.Fatalf("lost updates at serializable: counter = %d, want %d (%d conflicts retried)",
				got, writers*increments, conflicts.Load())
		}
		t.Logf("serializable: %d increments, %d upgrade deadlocks retried", writers*increments, conflicts.Load())
	})
}
