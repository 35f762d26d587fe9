package sbdms

// Bulk-ingest coverage: the option/error matrix for DB.Import, the
// fallback accounting, cancellation, vacuum over an imported range, and
// — as TestKVCrashRecoveryMidImport* — the all-or-nothing crash
// guarantee: a crash anywhere inside an import recovers to every key or
// to none, never a partial prefix.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/wal"
)

// importTestBatch builds n keys in shuffled (unsorted) order with
// values that identify their key, so post-import reads can verify the
// pairing survived the internal sort.
func importTestBatch(n int, seed int64) ([]string, [][]byte) {
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("imp-%06d", i)
		vals[i] = []byte(fmt.Sprintf("val-of-%06d", i))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
		vals[i], vals[j] = vals[j], vals[i]
	})
	return keys, vals
}

// verifyImported asserts every batch key reads back with its value and
// the count matches.
func verifyImported(t *testing.T, db *DB, keys []string, vals [][]byte) {
	t.Helper()
	if got, want := kvLen(t, db), uint64(len(keys)); got != want {
		t.Fatalf("KVLen = %d, want %d", got, want)
	}
	for i, k := range keys {
		got, err := db.Get(ctx, k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(got) != string(vals[i]) {
			t.Fatalf("Get(%q) = %q, want %q", k, got, vals[i])
		}
	}
}

// TestImportFastPath loads an empty store through the fast path —
// enough keys for a multi-level tree — and verifies point reads, scan
// order, snapshot reads and that no fallback was taken.
func TestImportFastPath(t *testing.T) {
	db, err := Open(Options{Granularity: Monolithic, BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(context.Background())
	keys, vals := importTestBatch(5000, 1)
	if err := db.Import(ctx, keys, vals); err != nil {
		t.Fatalf("import: %v", err)
	}
	if got := db.ImportFallbacks(); got != 0 {
		t.Fatalf("ImportFallbacks = %d, want 0 (fast path)", got)
	}
	verifyImported(t, db, keys, vals)
	// The leaf chain must serve scans in sorted order across page
	// boundaries.
	ks, err := db.ScanKeys(ctx, "", len(keys)+10)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(ks) != len(keys) {
		t.Fatalf("scan returned %d keys, want %d", len(ks), len(keys))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("scan out of order at %d: %q >= %q", i, ks[i-1], ks[i])
		}
	}
	// Snapshot reads resolve the imported versions (single commit TS,
	// completed at import end).
	if v, err := db.GetSnapshot(ctx, "imp-000000"); err != nil || string(v) != "val-of-000000" {
		t.Fatalf("GetSnapshot = %q, %v", v, err)
	}
	// The store stays fully writable after the root swap.
	if err := db.Put(ctx, "imp-extra", []byte("x")); err != nil {
		t.Fatalf("put after import: %v", err)
	}
	if err := db.DeleteKey(ctx, "imp-000001"); err != nil {
		t.Fatalf("delete after import: %v", err)
	}
	if got, want := kvLen(t, db), uint64(len(keys)); got != want {
		t.Fatalf("KVLen after put+delete = %d, want %d", got, want)
	}
}

// TestImportSurvivesReopen: a clean close and reopen serves the whole
// imported range from disk.
func TestImportSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	openDev := func(name string) storage.Device {
		d, err := storage.OpenFileDevice(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	logDir, err := wal.NewFileSegmentDir(dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{Device: openDev("data"), LogDir: logDir, Granularity: Monolithic, BufferFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := importTestBatch(3000, 2)
	if err := db.Import(ctx, keys, vals); err != nil {
		t.Fatalf("import: %v", err)
	}
	if err := db.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	db, err = Open(Options{Device: openDev("data"), LogDir: logDir, Granularity: Monolithic, BufferFrames: 32})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close(context.Background())
	verifyImported(t, db, keys, vals)
}

// TestImportErrorMatrix is the option/error matrix: mismatched lengths,
// duplicates, oversized keys and values are typed rejections that leave
// the store untouched; unsorted input and the empty batch are fine.
func TestImportErrorMatrix(t *testing.T) {
	db, err := Open(Options{Granularity: Monolithic, BufferFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(context.Background())

	if err := db.Import(ctx, []string{"a", "b"}, [][]byte{[]byte("1")}); !errors.Is(err, ErrBatchMismatch) && err == nil {
		t.Fatalf("mismatched batch: %v", err)
	}
	if err := db.Import(ctx, nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := db.Import(ctx, []string{"b", "a", "b"}, [][]byte{{1}, {2}, {3}}); !errors.Is(err, ErrImportDuplicate) {
		t.Fatalf("duplicate key: %v, want ErrImportDuplicate", err)
	}
	bigKey := string(make([]byte, 4*storage.PageSize))
	if err := db.Import(ctx, []string{bigKey}, [][]byte{{1}}); !errors.Is(err, ErrImportKeyTooLarge) {
		t.Fatalf("oversized key: %v, want ErrImportKeyTooLarge", err)
	}
	if err := db.Import(ctx, []string{"k"}, [][]byte{make([]byte, 2*storage.PageSize)}); !errors.Is(err, ErrImportValueTooLarge) {
		t.Fatalf("oversized value: %v, want ErrImportValueTooLarge", err)
	}
	// Every rejection happened before any page write: store still empty,
	// and a subsequent import still takes the fast path.
	if got := kvLen(t, db); got != 0 {
		t.Fatalf("KVLen after rejected imports = %d, want 0", got)
	}
	if err := db.Import(ctx, []string{"z", "y", "x"}, [][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatalf("unsorted import: %v", err)
	}
	if got := db.ImportFallbacks(); got != 0 {
		t.Fatalf("ImportFallbacks = %d, want 0", got)
	}
	if ks, err := db.ScanKeys(ctx, "", 10); err != nil || len(ks) != 3 || ks[0] != "x" || ks[2] != "z" {
		t.Fatalf("scan after unsorted import = %v, %v", ks, err)
	}
}

// TestImportFallbacks: a non-empty store must route through the per-key
// path — counted, and still correct (including overwrites of existing
// keys).
func TestImportFallbacks(t *testing.T) {
	db, err := Open(Options{Granularity: Monolithic, BufferFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(context.Background())
	if err := db.Put(ctx, "imp-000001", []byte("old")); err != nil {
		t.Fatal(err)
	}
	keys, vals := importTestBatch(50, 3)
	if err := db.Import(ctx, keys, vals); err != nil {
		t.Fatalf("import: %v", err)
	}
	if got := db.ImportFallbacks(); got != 1 {
		t.Fatalf("ImportFallbacks = %d, want 1", got)
	}
	// The import overwrote the pre-existing key.
	verifyImported(t, db, keys, vals)
}

// TestImportCancelLeavesNoState: a cancellation observed mid-load rolls
// the whole import back — no keys, no count, and the freed pages leave
// the engine fully reusable (the next import fast-paths again).
func TestImportCancelLeavesNoState(t *testing.T) {
	db, err := Open(Options{Granularity: Monolithic, BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(context.Background())
	db.kv.importChunkPages = 1
	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // chunk pacing observes this after the first page
	keys, vals := importTestBatch(2000, 6)
	if err := db.Import(cancelled, keys, vals); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled import: %v, want context.Canceled", err)
	}
	if got := kvLen(t, db); got != 0 {
		t.Fatalf("KVLen after cancelled import = %d, want 0", got)
	}
	if _, err := db.Get(ctx, keys[0]); err == nil || !IsKeyNotFound(err) {
		t.Fatalf("Get after cancelled import: %v, want not-found", err)
	}
	// Engine unharmed: the retry loads through the fast path.
	if err := db.Import(ctx, keys, vals); err != nil {
		t.Fatalf("import after cancel: %v", err)
	}
	if got := db.ImportFallbacks(); got != 0 {
		t.Fatalf("ImportFallbacks = %d, want 0", got)
	}
	verifyImported(t, db, keys, vals)
}

// TestImportGranularities drives the import op through every service
// decomposition profile.
func TestImportGranularities(t *testing.T) {
	for _, g := range Granularities {
		t.Run(string(g), func(t *testing.T) {
			db, err := Open(Options{Granularity: g, BufferFrames: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close(context.Background())
			keys, vals := importTestBatch(500, 7)
			if err := db.Import(ctx, keys, vals); err != nil {
				t.Fatalf("import via %s: %v", g, err)
			}
			verifyImported(t, db, keys, vals)
		})
	}
}

// TestImportThenVacuum: vacuum over an imported range reclaims deleted
// keys' versions and leaves the survivors intact — the imported
// (pre-stamped) version cells behave exactly like per-key committed
// versions.
func TestImportThenVacuum(t *testing.T) {
	db, err := Open(Options{Granularity: Monolithic, BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(context.Background())
	keys, vals := importTestBatch(1000, 9)
	if err := db.Import(ctx, keys, vals); err != nil {
		t.Fatalf("import: %v", err)
	}
	for i := 0; i < 1000; i += 2 {
		if err := db.DeleteKey(ctx, fmt.Sprintf("imp-%06d", i)); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	st, err := db.Vacuum()
	if err != nil {
		t.Fatalf("vacuum: %v", err)
	}
	if st.KeysRemoved == 0 {
		t.Fatalf("vacuum reclaimed nothing over imported range: %+v", st)
	}
	if got := kvLen(t, db); got != 500 {
		t.Fatalf("KVLen after vacuum = %d, want 500", got)
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("imp-%06d", i)
		_, err := db.Get(ctx, k)
		if i%2 == 0 {
			if err == nil || !IsKeyNotFound(err) {
				t.Fatalf("deleted %q after vacuum: %v", k, err)
			}
		} else if err != nil {
			t.Fatalf("survivor %q lost after vacuum: %v", k, err)
		}
	}
}

// TestImportConcurrentWriters races an import on an EMPTY store against
// per-key writers and snapshot scanners. Whoever wins the install race,
// every committed key must survive, and no snapshot may ever observe a
// partial import — the imported range appears as one atomic cut.
func TestImportConcurrentWriters(t *testing.T) {
	db, err := Open(Options{Granularity: Monolithic, BufferFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(context.Background())
	db.kv.importChunkPages = 2
	const nImp, nPut = 2000, 200
	keys, vals := importTestBatch(nImp, 11)
	done := make(chan error, 2)
	go func() { done <- db.Import(ctx, keys, vals) }()
	go func() {
		for i := 0; i < nPut; i++ {
			if err := db.Put(ctx, fmt.Sprintf("put-%04d", i), []byte("w")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	partial := make(chan int, 1)
	stopScan := make(chan struct{})
	go func() {
		defer close(partial)
		for {
			select {
			case <-stopScan:
				return
			default:
			}
			ks, err := db.ScanKeysSnapshot(ctx, "imp-", nImp+1)
			if err != nil {
				continue
			}
			n := 0
			for _, k := range ks {
				if len(k) > 4 && k[:4] == "imp-" {
					n++
				}
			}
			if n != 0 && n != nImp {
				partial <- n
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent run: %v", err)
		}
	}
	close(stopScan)
	if n, ok := <-partial; ok {
		t.Fatalf("snapshot scan observed PARTIAL import: %d of %d keys", n, nImp)
	}
	if got, want := kvLen(t, db), uint64(nImp+nPut); got != want {
		t.Fatalf("KVLen = %d, want %d", got, want)
	}
	for i, k := range keys {
		if got, err := db.Get(ctx, k); err != nil || string(got) != string(vals[i]) {
			t.Fatalf("Get(%q) = %q, %v", k, got, err)
		}
	}
	for i := 0; i < nPut; i++ {
		if _, err := db.Get(ctx, fmt.Sprintf("put-%04d", i)); err != nil {
			t.Fatalf("concurrent put key lost: %v", err)
		}
	}
}

// importCrashN is sized so the import spans many pages (and therefore
// many fault-device writes) while staying fast under -race.
const importCrashN = 2000

// verifyImportAllOrNothing reopens from the surviving devices and
// asserts the import's crash contract: every key present, or none.
func verifyImportAllOrNothing(t *testing.T, dataDev storage.Device, logDir wal.SegmentDir, keys []string, vals [][]byte) {
	t.Helper()
	db, err := Open(Options{Device: dataDev, LogDir: logDir, Granularity: Monolithic, BufferFrames: 64, WALSegmentBytes: crashSegmentBytes})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close(context.Background())
	switch got := kvLen(t, db); got {
	case 0:
		for _, i := range []int{0, len(keys) / 2, len(keys) - 1} {
			if _, err := db.Get(ctx, keys[i]); err == nil || !IsKeyNotFound(err) {
				t.Fatalf("rolled-back import: Get(%q) = %v, want not-found", keys[i], err)
			}
		}
		// The rolled-back store must accept a fresh import.
		if err := db.Import(ctx, keys[:10], vals[:10]); err != nil {
			t.Fatalf("import after rolled-back import: %v", err)
		}
		if got := kvLen(t, db); got != 10 {
			t.Fatalf("KVLen after re-import = %d, want 10", got)
		}
	case uint64(len(keys)):
		for _, i := range []int{0, 1, len(keys) / 3, len(keys) / 2, len(keys) - 2, len(keys) - 1} {
			got, err := db.Get(ctx, keys[i])
			if err != nil {
				t.Fatalf("committed import: Get(%q): %v", keys[i], err)
			}
			if string(got) != string(vals[i]) {
				t.Fatalf("committed import: Get(%q) = %q, want %q", keys[i], got, vals[i])
			}
		}
	default:
		t.Fatalf("PARTIAL import after crash: KVLen = %d, want 0 or %d", got, len(keys))
	}
}

// TestKVCrashRecoveryMidImportKill9 crashes the DATA device after a
// sweep of write counts while an import is in flight (a tiny pool
// forces write-back traffic throughout), then abandons the process
// without a flush. Recovery must land on all keys or none.
func TestKVCrashRecoveryMidImportKill9(t *testing.T) {
	for _, crashAfter := range []int{0, 2, 9, 33, 80} {
		t.Run(fmt.Sprintf("crashAfter=%d", crashAfter), func(t *testing.T) {
			inner, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
			fault := storage.NewFaultDevice(inner)
			db := openCrashDB(t, fault, logDir)
			keys, vals := importTestBatch(importCrashN, int64(crashAfter)+20)
			fault.CrashAfterWrites(crashAfter, 0)
			// The import may fail (device died under it) — that is the
			// point; only the recovered state matters.
			_ = db.Import(ctx, keys, vals)
			abandon(db)
			verifyImportAllOrNothing(t, inner, logDir, keys, vals)
		})
	}
}

// TestKVCrashRecoveryMidImportTornWrite is the kill-9 sweep with the
// crashing data-device write torn mid-page, so recovery must also
// detect the checksum failure and rebuild the page from logged images.
func TestKVCrashRecoveryMidImportTornWrite(t *testing.T) {
	for _, crashAfter := range []int{1, 7, 25} {
		t.Run(fmt.Sprintf("crashAfter=%d", crashAfter), func(t *testing.T) {
			inner, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
			fault := storage.NewFaultDevice(inner)
			db := openCrashDB(t, fault, logDir)
			keys, vals := importTestBatch(importCrashN, int64(crashAfter)+40)
			fault.CrashAfterWrites(crashAfter, storage.PageSize/2)
			_ = db.Import(ctx, keys, vals)
			abandon(db)
			verifyImportAllOrNothing(t, inner, logDir, keys, vals)
		})
	}
}

// TestKVCrashRecoveryMidImportWALCrash kills the WAL instead of the
// data device, at EVERY log write of the import in turn (the sweep ends
// at the first crash point the import never reaches). Small segments
// make the load roll several times, so the log holds an arbitrary prefix
// of the import's records cut mid-segment, on a new segment's header
// write, or just after it; odd crash points also tear the crashing
// write. Without a commit record recovery classifies the import as a
// loser and rolls it back wholesale; with one it replays everything.
// Never a prefix.
func TestKVCrashRecoveryMidImportWALCrash(t *testing.T) {
	maxSegments := 0
	for crashAfter, crashed := 0, true; crashed; crashAfter++ {
		t.Run(fmt.Sprintf("crashAfter=%d", crashAfter), func(t *testing.T) {
			crashed = false // a failing crash point ends the sweep
			dataDev, innerDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
			gate := &crashGate{arm: -1}
			db, err := Open(Options{
				Device:          dataDev,
				LogDir:          &faultSegmentDir{inner: innerDir, g: gate},
				Granularity:     Monolithic,
				BufferFrames:    64,
				WALSegmentBytes: crashSegmentBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			// One-page chunks force frequent WAL flushes, spreading the
			// import across many log writes so the sweep hits genuinely
			// different prefixes.
			db.kv.importChunkPages = 1
			keys, vals := importTestBatch(importCrashN, 60)
			gate.mu.Lock()
			gate.arm, gate.tear = int64(crashAfter), 20*(crashAfter%2)
			gate.mu.Unlock()
			_ = db.Import(ctx, keys, vals)
			abandon(db)
			crashed = gate.dead()
			if n := innerDir.SegmentCount(); n > maxSegments {
				maxSegments = n
			}
			verifyImportAllOrNothing(t, dataDev, innerDir, keys, vals)
		})
	}
	if maxSegments < 3 {
		t.Fatalf("import spanned %d WAL segments: the sweep never crossed a rollover", maxSegments)
	}
}

// TestKVCrashRecoveryAfterImport: kill -9 immediately after a
// successful import, before any page flush — the imported tree exists
// ONLY as WAL full-page images, and redo must rebuild every heap and
// index page from them.
func TestKVCrashRecoveryAfterImport(t *testing.T) {
	dataDev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db, err := Open(Options{Device: dataDev, LogDir: logDir, Granularity: Monolithic, BufferFrames: 4096, WALSegmentBytes: crashSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := importTestBatch(importCrashN, 10)
	if err := db.Import(ctx, keys, vals); err != nil {
		t.Fatalf("import: %v", err)
	}
	abandon(db)
	db2, err := Open(Options{Device: dataDev, LogDir: logDir, Granularity: Monolithic, BufferFrames: 64, WALSegmentBytes: crashSegmentBytes})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close(context.Background())
	verifyImported(t, db2, keys, vals)
}
