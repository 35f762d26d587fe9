package sbdms

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/wal"
)

// runVersionChainWorkload builds deep version chains: a small key
// space is overwritten round after round with interleaved deletes and
// re-inserts, so a crash lands with most chains several versions deep
// and the newest heads freshly stamped. It records, like
// runKVCrashWorkload, only operations that reported success — plus
// the commit clock observed after the last success, which is the
// durable stamp recovery must restore the clock above (the workload
// is single-threaded, so Clock() right after a successful commit IS
// that commit's timestamp).
func runVersionChainWorkload(db *DB, rounds, keySpace int, fault *storage.FaultDevice) (*crashState, uint64) {
	st := &crashState{live: map[string]string{}, deleted: map[string]bool{}}
	var lastClock uint64
	afterCrash := 0
	for r := 0; r < rounds && afterCrash <= 20; r++ {
		for i := 0; i < keySpace; i++ {
			if fault != nil && fault.Crashed() {
				afterCrash++
				if afterCrash > 20 {
					break
				}
			}
			k := fmt.Sprintf("chain-%03d", i)
			if r%4 == 3 && i%5 == 0 {
				if err := db.DeleteKey(ctx, k); err == nil {
					delete(st.live, k)
					st.deleted[k] = true
					lastClock = db.kv.oracle.Clock()
				}
				continue
			}
			v := fmt.Sprintf("v-%d-%d", r, i)
			if err := db.Put(ctx, k, []byte(v)); err == nil {
				st.live[k] = v
				delete(st.deleted, k)
				lastClock = db.kv.oracle.Clock()
			}
		}
	}
	return st, lastClock
}

// verifyRecoveredMVCC reopens the store and asserts, beyond
// verifyRecovered's checks, that the rebuilt version chains resolve
// identically on the snapshot read path (GetSnapshot walks the chain
// by begin timestamp, so a mis-relinked or mis-stamped chain diverges
// from the locking path here) and that the commit clock resumed above
// the last durable pre-crash stamp — a post-recovery commit must
// never reuse a timestamp that already stamps recovered versions.
func verifyRecoveredMVCC(t *testing.T, dataDev storage.Device, logDir wal.SegmentDir, st *crashState, clockBefore uint64) {
	t.Helper()
	db, err := Open(Options{
		Device:          dataDev,
		LogDir:          logDir,
		WALSegmentBytes: crashSegmentBytes,
		Granularity:     Monolithic,
		BufferFrames:    64,
	})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close(context.Background())
	if got := db.kv.oracle.Clock(); got < clockBefore {
		t.Fatalf("commit clock after recovery = %d, want >= %d", got, clockBefore)
	}
	for k, want := range st.live {
		got, err := db.Get(ctx, k)
		if err != nil {
			t.Fatalf("committed key %q lost after recovery: %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("committed key %q = %q, want %q", k, got, want)
		}
		sgot, err := db.GetSnapshot(ctx, k)
		if err != nil {
			t.Fatalf("snapshot read of committed key %q after recovery: %v", k, err)
		}
		if string(sgot) != want {
			t.Fatalf("snapshot read of %q = %q, want %q (chain head mis-stamped)", k, sgot, want)
		}
	}
	for k := range st.deleted {
		if _, err := db.GetSnapshot(ctx, k); err == nil {
			t.Fatalf("committed delete of %q visible to a snapshot after recovery", k)
		} else if !IsKeyNotFound(err) {
			t.Fatalf("GetSnapshot(%q) after committed delete: %v", k, err)
		}
	}
	if got, want := kvLen(t, db), uint64(len(st.live)); got != want {
		t.Fatalf("KVLen after recovery = %d, want %d", got, want)
	}
	// A fresh commit must stamp strictly above every recovered version.
	if err := db.Put(ctx, "clock-probe", []byte("post-crash")); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if got := db.kv.oracle.Clock(); got <= clockBefore {
		t.Fatalf("post-recovery commit stamped ts %d, want > %d", got, clockBefore)
	}
}

// TestKVCrashRecoveryVersionChains is the MVCC kill -9 scenario: an
// update-heavy workload leaves every key a multi-version chain, the
// engine dies without a flush, and recovery must rebuild the chains
// (redo re-inserts versions and re-links prev pointers at their exact
// RIDs) and the commit-timestamp clock.
func TestKVCrashRecoveryVersionChains(t *testing.T) {
	dataDev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db := openCrashDB(t, dataDev, logDir)
	st, clock := runVersionChainWorkload(db, 12, 40, nil)
	if len(st.live) == 0 || clock == 0 {
		t.Fatal("workload committed nothing")
	}
	abandon(db)
	verifyRecoveredMVCC(t, dataDev, logDir, st, clock)
}

// TestKVCrashRecoveryVersionChainsTornWrite crashes the data device
// mid-write-back — tearing the crashing page in half — under the same
// chain-building workload: the torn page fails its checksum and the
// chains crossing it must be rebuilt from logged images.
func TestKVCrashRecoveryVersionChainsTornWrite(t *testing.T) {
	for _, crashAfter := range []int{2, 13, 45} {
		t.Run(fmt.Sprintf("crashAfter=%d", crashAfter), func(t *testing.T) {
			inner, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
			fault := storage.NewFaultDevice(inner)
			db := openCrashDB(t, fault, logDir)
			fault.CrashAfterWrites(crashAfter, storage.PageSize/2)
			st, clock := runVersionChainWorkload(db, 12, 40, fault)
			abandon(db)
			verifyRecoveredMVCC(t, inner, logDir, st, clock)
		})
	}
}

// TestCrashMidVacuum kills the data device while a vacuum pass is
// truncating chains and removing dead keys, at several crash points
// (clean dropped write and torn write). Whatever the vacuum
// transaction's fate — committed, rolled back by recovery, or never
// started — the recovered store must hold every committed value
// (no live version lost), and a full vacuum over the recovered store
// must drain the heap to exactly one slot per live key (no dead slot
// leaked by the interrupted pass).
func TestCrashMidVacuum(t *testing.T) {
	for _, tc := range []struct {
		crashAfter int
		tear       int
	}{
		{0, 0}, {3, 0}, {17, 0}, {5, storage.PageSize / 2},
	} {
		t.Run(fmt.Sprintf("crashAfter=%d,tear=%d", tc.crashAfter, tc.tear), func(t *testing.T) {
			inner, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
			fault := storage.NewFaultDevice(inner)
			db := openCrashDB(t, fault, logDir)

			// Four versions per key, then every third key deleted: the
			// vacuum has both chains to truncate and whole keys to remove.
			const keys = 60
			st := &crashState{live: map[string]string{}, deleted: map[string]bool{}}
			for v := 0; v < 4; v++ {
				for i := 0; i < keys; i++ {
					k := fmt.Sprintf("vac-%03d", i)
					val := fmt.Sprintf("v%d-%03d", v, i)
					if err := db.Put(ctx, k, []byte(val)); err != nil {
						t.Fatal(err)
					}
					st.live[k] = val
				}
			}
			for i := 0; i < keys; i += 3 {
				k := fmt.Sprintf("vac-%03d", i)
				if err := db.DeleteKey(ctx, k); err != nil {
					t.Fatal(err)
				}
				delete(st.live, k)
				st.deleted[k] = true
			}

			fault.CrashAfterWrites(tc.crashAfter, tc.tear)
			_, _ = db.Vacuum() // the device dies under it; any error is legal
			abandon(db)

			db2, err := Open(Options{
				Device:          inner,
				LogDir:          logDir,
				WALSegmentBytes: crashSegmentBytes,
				Granularity:     Monolithic,
				BufferFrames:    64,
			})
			if err != nil {
				t.Fatalf("reopen after mid-vacuum crash: %v", err)
			}
			defer db2.Close(context.Background())
			for k, want := range st.live {
				got, err := db2.Get(ctx, k)
				if err != nil {
					t.Fatalf("live key %q lost across mid-vacuum crash: %v", k, err)
				}
				if string(got) != want {
					t.Fatalf("live key %q = %q, want %q", k, got, want)
				}
			}
			for k := range st.deleted {
				if _, err := db2.Get(ctx, k); err == nil {
					t.Fatalf("deleted key %q resurrected by mid-vacuum crash", k)
				} else if !IsKeyNotFound(err) {
					t.Fatalf("Get(%q): %v", k, err)
				}
			}
			if got, want := kvLen(t, db2), uint64(len(st.live)); got != want {
				t.Fatalf("KVLen after recovery = %d, want %d", got, want)
			}
			// A full pass over the recovered store must reach the fully
			// reclaimed fixpoint: one heap slot per live key. Fewer would
			// mean a live version was lost; more, a leaked dead slot.
			vs, err := db2.Vacuum()
			if err != nil {
				t.Fatalf("vacuum after recovery: %v", err)
			}
			if vs.SkippedBusy != 0 || vs.SkippedUncommitted != 0 {
				t.Fatalf("post-recovery vacuum skipped work: %+v", vs)
			}
			n, err := db2.kv.heap.Count()
			if err != nil {
				t.Fatal(err)
			}
			if n != len(st.live) {
				t.Fatalf("heap holds %d slots after recovery+vacuum, want %d (lost live version or leaked dead slot)", n, len(st.live))
			}
		})
	}
}
