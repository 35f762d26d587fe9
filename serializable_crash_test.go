package sbdms

import (
	"context"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
)

// TestSerializableScanCrashRecovery kills the engine mid
// serializable-scan-with-writers: scanners hold next-key S locks and
// writers hold key X and gap locks when the device dies. All of those
// locks are volatile by design — strict 2PL releases them only on a
// durable outcome, and a crash IS an outcome (abort) for every
// in-flight transaction. Recovery must therefore (a) replay to exactly
// the acknowledged, serially-consistent state, and (b) leave no orphan
// gap locks: post-recovery scans and writes into previously scanned
// gaps (including the end-of-index sentinel gap) must proceed without
// blocking on ghosts of pre-crash lock owners.
func TestSerializableScanCrashRecovery(t *testing.T) {
	for _, tc := range []struct {
		name       string
		crashAfter int
		tear       int
	}{
		{"kill9-dropped-write", 20, 0},
		{"kill9-torn-write", 35, storage.PageSize / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
			fault := storage.NewFaultDevice(inner)
			db, err := Open(Options{
				Device:          fault,
				LogDir:          logDir,
				WALSegmentBytes: crashSegmentBytes,
				Granularity:     Monolithic,
				BufferFrames:    32, // small pool: eviction write-back mid-run
				ScanIsolation:   Serializable,
			})
			if err != nil {
				t.Fatal(err)
			}
			fault.CrashAfterWrites(tc.crashAfter, tc.tear)
			st := runConcurrentCrashWorkload(db, 6, 300, 25, fault)
			abandon(db)
			verifySerializableRecovered(t, inner, logDir, st)
		})
	}
}

// TestSerializableScanCrashRecoveryKill9 is the no-device-fault
// variant: full concurrent serializable load, then the process
// "dies" with nothing flushed (no SyncMeta, no Close) while the lock
// table is still populated in memory.
func TestSerializableScanCrashRecoveryKill9(t *testing.T) {
	dataDev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db, err := Open(Options{
		Device:          dataDev,
		LogDir:          logDir,
		WALSegmentBytes: crashSegmentBytes,
		Granularity:     Monolithic,
		BufferFrames:    256,
		ScanIsolation:   Serializable,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := runConcurrentCrashWorkload(db, 8, 250, 30, nil)
	if len(st.live) == 0 {
		t.Fatal("workload committed nothing")
	}
	abandon(db)
	verifySerializableRecovered(t, dataDev, logDir, st)
}

// verifySerializableRecovered reopens the store at serializable
// isolation, checks the committed state key by key, and then proves
// liveness: scans and writes across previously scanned gaps complete
// within a bounded context, and the lock table drains to empty.
func verifySerializableRecovered(t *testing.T, dataDev storage.Device, logDir wal.SegmentDir, st *crashState) {
	t.Helper()
	db, err := Open(Options{
		Device:          dataDev,
		LogDir:          logDir,
		WALSegmentBytes: crashSegmentBytes,
		Granularity:     Monolithic,
		BufferFrames:    64,
		ScanIsolation:   Serializable,
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

	// No orphan gap locks: everything below must finish promptly. A
	// leaked pre-crash lock would park one of these forever.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	keys, err := db.ScanKeys(ctx, "", 1_000_000)
	if err != nil {
		t.Fatalf("serializable scan after recovery: %v", err)
	}
	if uint64(len(keys)) != kvLen(t, db) {
		t.Fatalf("post-recovery scan saw %d keys, want %d", len(keys), kvLen(t, db))
	}
	// Insert into an interior gap and past the end (the EOF sentinel
	// gap every completed scan locked), delete an existing key (gap
	// lock on its successor), then scan again.
	if err := db.Put(ctx, "m-interior-gap", []byte("v")); err != nil {
		t.Fatalf("put into scanned gap after recovery: %v", err)
	}
	if err := db.Put(ctx, "zzzz-past-the-end", []byte("v")); err != nil {
		t.Fatalf("append past end-of-index after recovery: %v", err)
	}
	if len(keys) > 0 {
		if err := db.DeleteKey(ctx, keys[0]); err != nil {
			t.Fatalf("delete after recovery: %v", err)
		}
	}
	again, err := db.ScanKeys(ctx, "", 1_000_000)
	if err != nil {
		t.Fatalf("second serializable scan after recovery: %v", err)
	}
	if len(again) == 0 {
		t.Fatal("post-recovery store empty after liveness writes")
	}
	if got := db.kv.locks.Locked(); got != 0 {
		t.Fatalf("lock table not drained after operations completed: %d resources still locked", got)
	}
}
