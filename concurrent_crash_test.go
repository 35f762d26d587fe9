package sbdms

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/wal"
)

// runConcurrentCrashWorkload drives workers over DISJOINT key stripes
// in parallel (so each worker can track its own committed state
// exactly) plus cross-stripe readers, against a device armed to crash
// mid-run. Only operations that reported success count as committed.
// The merged committed state is what recovery must reproduce — with
// transactions from many workers interleaved in the WAL, undone and
// committed work sharing pages.
func runConcurrentCrashWorkload(db *DB, workers, opsPer, keysPer int, fault *storage.FaultDevice) *crashState {
	states := make([]*crashState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &crashState{live: map[string]string{}, deleted: map[string]bool{}}
			states[w] = st
			rng := rand.New(rand.NewSource(int64(w + 1)))
			pad := strings.Repeat("y", 60)
			afterCrash := 0
			for i := 0; i < opsPer; i++ {
				if fault != nil && fault.Crashed() {
					afterCrash++
					if afterCrash > 10 {
						return
					}
				}
				k := fmt.Sprintf("w%02d-key-%03d", w, rng.Intn(keysPer))
				switch {
				case rng.Intn(10) < 6:
					v := fmt.Sprintf("val-%d-%d-%s", w, i, pad)
					if err := db.Put(ctx, k, []byte(v)); err == nil {
						st.live[k] = v
						delete(st.deleted, k)
					}
				case rng.Intn(2) == 0 && len(st.live) > 0:
					if _, ok := st.live[k]; ok {
						if err := db.DeleteKey(ctx, k); err == nil {
							delete(st.live, k)
							st.deleted[k] = true
						}
					}
				default:
					_, _ = db.Get(ctx, k) // cross-page read traffic
				}
			}
		}()
	}
	// Scanners force leaf-chain traversal concurrent with splits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if fault != nil && fault.Crashed() {
				return
			}
			_, _ = db.ScanKeys(ctx, "", 10_000)
		}
	}()
	wg.Wait()

	merged := &crashState{live: map[string]string{}, deleted: map[string]bool{}}
	for _, st := range states {
		for k, v := range st.live {
			merged.live[k] = v
		}
		for k := range st.deleted {
			merged.deleted[k] = true
		}
	}
	return merged
}

// TestKVCrashRecoveryConcurrentKill9: kill -9 while 8 goroutines are
// mid-flight. The WAL holds interleaved records of committed,
// uncommitted and rolled-back transactions from all of them; recovery
// must repeat history, logically undo the in-flight losers, and
// reproduce exactly the acknowledged state.
func TestKVCrashRecoveryConcurrentKill9(t *testing.T) {
	dataDev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db := openStressDB(t, dataDev, logDir)
	st := runConcurrentCrashWorkload(db, 8, 250, 30, nil)
	if len(st.live) == 0 {
		t.Fatal("workload committed nothing")
	}
	abandon(db) // kill -9: nothing flushed, no SyncMeta, no Close
	verifyRecovered(t, dataDev, logDir, st)
}

// TestKVCrashRecoveryConcurrentMidWriteBack crashes the data device at
// several points while concurrent transactions are interleaving on
// shared pages; committed work before and astride the crash must
// survive, in-flight work must vanish.
func TestKVCrashRecoveryConcurrentMidWriteBack(t *testing.T) {
	for _, crashAfter := range []int{5, 25, 80} {
		t.Run(fmt.Sprintf("crashAfter=%d", crashAfter), func(t *testing.T) {
			inner, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
			fault := storage.NewFaultDevice(inner)
			db, err := Open(Options{
				Device:          fault,
				LogDir:          logDir,
				Granularity:     Monolithic,
				BufferFrames:    32, // small pool: eviction write-back mid-run
				WALSegmentBytes: crashSegmentBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			fault.CrashAfterWrites(crashAfter, 0)
			st := runConcurrentCrashWorkload(db, 6, 300, 25, fault)
			abandon(db)
			verifyRecovered(t, inner, logDir, st)
		})
	}
}

// TestKVCrashRecoveryConcurrentTornWrite tears a page write mid-
// concurrent-load: recovery reconstructs the page from logged full
// images even though many transactions' diffs landed on it.
func TestKVCrashRecoveryConcurrentTornWrite(t *testing.T) {
	for _, crashAfter := range []int{8, 33} {
		t.Run(fmt.Sprintf("crashAfter=%d", crashAfter), func(t *testing.T) {
			inner, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
			fault := storage.NewFaultDevice(inner)
			db, err := Open(Options{
				Device:          fault,
				LogDir:          logDir,
				Granularity:     Monolithic,
				BufferFrames:    32,
				WALSegmentBytes: crashSegmentBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			fault.CrashAfterWrites(crashAfter, storage.PageSize/2)
			st := runConcurrentCrashWorkload(db, 6, 300, 25, fault)
			abandon(db)
			verifyRecovered(t, inner, logDir, st)
		})
	}
}

// TestKVConcurrentLoadThenCleanClose: full concurrent mixed load, then
// the clean-shutdown persistence steps (index metadata sync + full
// flush, what DB.Close runs before closing the device), reopen: state
// and counts intact.
func TestKVConcurrentLoadThenCleanClose(t *testing.T) {
	dataDev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db := openStressDB(t, dataDev, logDir)
	st := runConcurrentCrashWorkload(db, 6, 200, 20, nil)
	if err := db.kv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	abandon(db)
	verifyRecovered(t, dataDev, logDir, st)
}
