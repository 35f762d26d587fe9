package sbdms

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// crashState tracks what a crash-recovery run must find after reopen:
// the value of every key whose Put committed (returned nil), and every
// key whose Delete committed.
type crashState struct {
	live    map[string]string
	deleted map[string]bool
}

// crashSegmentBytes is the WAL segment size of the crash harnesses:
// small enough that every workload rolls segments several times, so
// recovery always reads a multi-segment log and WAL-side kill points
// land on segment headers as well as records.
const crashSegmentBytes = 64 << 10

// runKVCrashWorkload drives a mixed put/delete KV workload against db,
// recording only operations that reported success. Operations are
// allowed to fail (a device may crash mid-run); the workload stops
// early once crashed (nil = never) reports the crash happened and a few
// more operations have been attempted against the dead device.
func runKVCrashWorkload(db *DB, nops, keySpace int, seed int64, crashed func() bool) *crashState {
	st := &crashState{live: map[string]string{}, deleted: map[string]bool{}}
	rng := rand.New(rand.NewSource(seed))
	pad := strings.Repeat("x", 80)
	afterCrash := 0
	for i := 0; i < nops; i++ {
		if crashed != nil && crashed() {
			afterCrash++
			if afterCrash > 20 {
				break
			}
		}
		k := fmt.Sprintf("key-%04d", rng.Intn(keySpace))
		if rng.Intn(10) < 7 || !st.deleted[k] && st.live[k] == "" {
			v := fmt.Sprintf("val-%d-%s", i, pad)
			if err := db.Put(ctx, k, []byte(v)); err == nil {
				st.live[k] = v
				delete(st.deleted, k)
			}
		} else if _, ok := st.live[k]; ok {
			if err := db.DeleteKey(ctx, k); err == nil {
				delete(st.live, k)
				st.deleted[k] = true
			}
		}
	}
	return st
}

// verifyRecovered reopens the store from the surviving data device and
// log directory and asserts that recovery succeeds, every committed key
// is readable with its committed value, every committed delete stays
// deleted, and the index count matches.
func verifyRecovered(t *testing.T, dataDev storage.Device, logDir wal.SegmentDir, st *crashState) {
	t.Helper()
	db, err := Open(Options{
		Device:          dataDev,
		LogDir:          logDir,
		Granularity:     Monolithic,
		BufferFrames:    64,
		WALSegmentBytes: crashSegmentBytes,
	})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close(context.Background())
	for k, want := range st.live {
		got, err := db.Get(ctx, k)
		if err != nil {
			t.Fatalf("committed key %q lost after recovery: %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("committed key %q = %q, want %q", k, got, want)
		}
	}
	for k := range st.deleted {
		if _, err := db.Get(ctx, k); err == nil {
			t.Fatalf("committed delete of %q resurrected after recovery", k)
		} else if !IsKeyNotFound(err) {
			t.Fatalf("Get(%q) after committed delete: %v", k, err)
		}
	}
	if got, want := kvLen(t, db), uint64(len(st.live)); got != want {
		t.Fatalf("KVLen after recovery = %d, want %d", got, want)
	}
}

// openCrashDB opens a DB over the given data device and log directory
// with a deliberately tiny buffer pool and small WAL segments, so dirty
// pages are written back and segments roll mid-workload and a crash
// leaves the store torn between flushed and unflushed pages.
func openCrashDB(t *testing.T, dataDev storage.Device, logDir wal.SegmentDir) *DB {
	t.Helper()
	db, err := Open(Options{
		Device:          dataDev,
		LogDir:          logDir,
		Granularity:     Monolithic,
		BufferFrames:    8,
		WALSegmentBytes: crashSegmentBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// abandon simulates kill -9: background services stop, but nothing is
// flushed or closed. Whatever reached the devices is all that survives.
// The storage engine runs no goroutine of its own, so once the caller's
// last call has returned no write can reach a device after the "kill".
func abandon(db *DB) {
	_ = db.Kernel().Stop(context.Background())
}

// TestKVCrashRecoveryKill9 is the acceptance scenario: a pure-KV
// workload (no SQL traffic) over a tiny pool, killed without any flush.
// Dirty pages resident in the pool are lost; pages evicted mid-run were
// written back. On the pre-fix engine this reopens to "storage: corrupt
// file directory: page 1 has type 6"; with end-to-end KV logging the
// store must reopen cleanly with every committed key present.
func TestKVCrashRecoveryKill9(t *testing.T) {
	dataDev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db := openCrashDB(t, dataDev, logDir)
	st := runKVCrashWorkload(db, 400, 120, 1, nil)
	if len(st.live) == 0 {
		t.Fatal("workload committed nothing")
	}
	abandon(db)
	verifyRecovered(t, dataDev, logDir, st)
}

// TestKVCrashRecoveryMidWriteBack crashes the data device part-way
// through the workload's write-back traffic, at several crash points:
// writes before the point land on disk, the crashing write is dropped,
// and every later access fails — exactly a disk dying under kill -9.
func TestKVCrashRecoveryMidWriteBack(t *testing.T) {
	for _, crashAfter := range []int{0, 3, 17, 60} {
		t.Run(fmt.Sprintf("crashAfter=%d", crashAfter), func(t *testing.T) {
			inner, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
			fault := storage.NewFaultDevice(inner)
			db := openCrashDB(t, fault, logDir)
			// Let the store format itself, then arm the crash so it
			// triggers during workload write-back.
			fault.CrashAfterWrites(crashAfter, 0)
			st := runKVCrashWorkload(db, 600, 120, int64(crashAfter)+2, fault.Crashed)
			abandon(db)
			verifyRecovered(t, inner, logDir, st)
		})
	}
}

// TestKVCrashRecoveryTornWrite tears a page write in half at the crash
// point: the page on disk fails its checksum and recovery must
// reconstruct it from logged images instead of reading it.
func TestKVCrashRecoveryTornWrite(t *testing.T) {
	for _, crashAfter := range []int{2, 11, 40} {
		t.Run(fmt.Sprintf("crashAfter=%d", crashAfter), func(t *testing.T) {
			inner, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
			fault := storage.NewFaultDevice(inner)
			db := openCrashDB(t, fault, logDir)
			fault.CrashAfterWrites(crashAfter, storage.PageSize/2)
			st := runKVCrashWorkload(db, 600, 120, int64(crashAfter)+100, fault.Crashed)
			abandon(db)
			verifyRecovered(t, inner, logDir, st)
		})
	}
}

// TestKVBatchAbortRollsBackTree: a batch whose last operation fails
// must roll back completely — including the B+tree's in-memory
// root/count, which physical page undo alone does not rewind — and
// leave a fully working engine whose state also survives a crash.
func TestKVBatchAbortRollsBackTree(t *testing.T) {
	dataDev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db := openCrashDB(t, dataDev, logDir)
	if err := db.Put(ctx, "survivor", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	// 300 small puts force index splits (new root) before the oversized
	// value fails the batch.
	keys := make([]string, 301)
	vals := make([][]byte, 301)
	for i := 0; i < 300; i++ {
		keys[i] = fmt.Sprintf("doomed-%03d", i)
		vals[i] = []byte(strings.Repeat("x", 40))
	}
	keys[300] = "too-big"
	vals[300] = make([]byte, 2*storage.PageSize)
	if err := db.PutBatch(ctx, keys, vals); err == nil {
		t.Fatal("oversized batch must fail")
	}
	if got := kvLen(t, db); got != 1 {
		t.Fatalf("KVLen after aborted batch = %d, want 1", got)
	}
	if _, err := db.Get(ctx, "doomed-000"); err == nil {
		t.Fatal("aborted key visible")
	}
	if got, err := db.Get(ctx, "survivor"); err != nil || string(got) != "v0" {
		t.Fatalf("survivor after abort = %q, %v", got, err)
	}
	// Engine still fully usable, and its post-abort commits recover.
	if err := db.Put(ctx, "after-abort", []byte("v1")); err != nil {
		t.Fatalf("put after aborted batch: %v", err)
	}
	abandon(db)
	verifyRecovered(t, dataDev, logDir, &crashState{
		live:    map[string]string{"survivor": "v0", "after-abort": "v1"},
		deleted: map[string]bool{"doomed-000": true, "too-big": true},
	})
}

// TestKVCrashRecoveryBatch covers the batched multi-op path: a batch
// is one transaction, so after a crash either all its keys are present
// or none are.
func TestKVCrashRecoveryBatch(t *testing.T) {
	dataDev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db := openCrashDB(t, dataDev, logDir)
	st := &crashState{live: map[string]string{}, deleted: map[string]bool{}}
	for b := 0; b < 20; b++ {
		keys := make([]string, 10)
		vals := make([][]byte, 10)
		for i := range keys {
			keys[i] = fmt.Sprintf("batch-%02d-%02d", b, i)
			vals[i] = []byte(fmt.Sprintf("v-%d-%d", b, i))
		}
		if err := db.PutBatch(ctx, keys, vals); err == nil {
			for i := range keys {
				st.live[keys[i]] = string(vals[i])
			}
		}
	}
	abandon(db)
	verifyRecovered(t, dataDev, logDir, st)
}

// TestKVCrashRecoveryLoserWithoutBeginRecord: no transaction logs a
// begin record, so a crash leaves a loser whose first durable record is
// an update. Analysis must open it there, redo must repeat its history
// and the logical undo must take every one of its writes back, while
// the committed keys beside them — on the same pages — survive; and the
// transactions that only read left nothing in the log at all.
func TestKVCrashRecoveryLoserWithoutBeginRecord(t *testing.T) {
	dataDev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db := openCrashDB(t, dataDev, logDir)
	st := &crashState{live: map[string]string{}, deleted: map[string]bool{}}
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("kept-%02d", i), fmt.Sprintf("v-%d", i)
		if err := db.Put(ctx, k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		st.live[k] = v
	}
	for i := 0; i < 40; i++ { // read-only transactions between the writes
		if _, err := db.Get(ctx, fmt.Sprintf("kept-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

	loser, err := db.kv.txns.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"kept-07", "loser-fresh-a", "kept-23", "loser-fresh-b"} {
		if err := db.kv.locks.Acquire(ctx, loser.ID(), kvRes(k), txn.Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := db.kv.putTx(ctx, loser, k, []byte("never committed")); err != nil {
			t.Fatal(err)
		}
	}
	// The loser's records are durable; its commit never happens.
	if err := db.Log().Flush(db.Log().NextLSN()); err != nil {
		t.Fatal(err)
	}
	first := map[uint64]wal.RecType{}
	ended := map[uint64]bool{}
	if err := db.Log().Iterate(wal.ZeroLSN, func(r *wal.Record) error {
		if r.Type == wal.RecBegin {
			t.Errorf("begin record at LSN %d", r.LSN)
		}
		if _, seen := first[r.Txn]; !seen && r.Type != wal.RecCheckpoint {
			first[r.Txn] = r.Type
		}
		if r.Type == wal.RecCommit || r.Type == wal.RecAbort {
			ended[r.Txn] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first[loser.ID()] != wal.RecUpdate || ended[loser.ID()] {
		t.Fatalf("loser %d: first record %v, ended %v", loser.ID(), first[loser.ID()], ended[loser.ID()])
	}
	for id, typ := range first {
		if typ != wal.RecUpdate {
			t.Fatalf("txn %d starts with a %v record", id, typ)
		}
	}
	abandon(db)

	verifyRecovered(t, dataDev, logDir, st)
}
