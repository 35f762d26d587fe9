package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	sbdms "repro"
	"repro/internal/storage"
	"repro/internal/vacuum"
	"repro/internal/wal"
)

// TestRestartKeepsAckedWrites: a node started with -data and no
// -wal-dir must keep its log next to the data file, so a write acked
// before kill -9 is still there after a restart on the same flags.
func TestRestartKeepsAckedWrites(t *testing.T) {
	ctx := context.Background()
	data := filepath.Join(t.TempDir(), "node.db")
	opts := sbdms.Options{Granularity: sbdms.Layered}

	db, err := openStore(data, "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(data+".wal", "wal.manifest")); err != nil {
		t.Fatalf("no log directory derived from -data: %v", err)
	}
	if err := db.Put(ctx, "acked", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// kill -9: stop the kernel's services, flush and close nothing.
	_ = db.Kernel().Stop(ctx)

	db, err = openStore(data, "", opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer db.Close(ctx)
	if v, err := db.Get(ctx, "acked"); err != nil || string(v) != "v" {
		t.Fatalf("acked write after restart = %q, %v", v, err)
	}
}

// TestOldLogFormatIsRefusedWithTheWayOut: a store whose log directory
// holds a segment in the previous record format does not open — the
// typed error survives sbdms.Open, names the reload path, and the old
// segment is left exactly as it was.
func TestOldLogFormatIsRefusedWithTheWayOut(t *testing.T) {
	data := filepath.Join(t.TempDir(), "node.db")
	if err := os.Mkdir(data+".wal", 0o755); err != nil {
		t.Fatal(err)
	}
	old := make([]byte, 32+64)
	copy(old, "1AWSMDBS") // "SBDMSWA1", little-endian
	segPath := filepath.Join(data+".wal", "wal.000001")
	if err := os.WriteFile(segPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openStore(data, "", sbdms.Options{})
	if !errors.Is(err, wal.ErrFormat) {
		t.Fatalf("openStore over an old-format log: %v", err)
	}
	if !strings.Contains(oldFormatHint, "sbdms -import") {
		t.Fatalf("hint %q does not name the reload path", oldFormatHint)
	}
	if got, rerr := os.ReadFile(segPath); rerr != nil || !bytes.Equal(got, old) {
		t.Fatalf("old segment changed (read err %v)", rerr)
	}
}

// reclaimCounter is a housekept engine that tallies what its vacuum
// passes reclaimed.
type reclaimCounter struct {
	*sbdms.DB
	reclaimed atomic.Int64
}

func (r *reclaimCounter) Vacuum() (vacuum.Stats, error) {
	st, err := r.DB.Vacuum()
	r.reclaimed.Add(int64(st.VersionsReclaimed))
	return st, err
}

// TestHousekeepCheckpointsAndVacuums: the engine runs no periodic work
// of its own, so on a served node -checkpoint-interval and
// -vacuum-interval are all that bound the log and the version chains.
// Driven on a short period over a file-backed store with small log
// segments, housekeep must truncate the log (its oldest segment
// advances) and reclaim every superseded version, and every key must
// still read its newest value.
func TestHousekeepCheckpointsAndVacuums(t *testing.T) {
	ctx := context.Background()
	data := filepath.Join(t.TempDir(), "node.db")
	db, err := openStore(data, "", sbdms.Options{WALSegmentBytes: 2 * storage.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(ctx)

	const keys, versions = 20, 5
	for v := 0; v < versions; v++ {
		for i := 0; i < keys; i++ {
			if err := db.Put(ctx, fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", v))); err != nil {
				t.Fatal(err)
			}
		}
	}
	oldest := db.Log().OldestSegment()
	if db.Log().ActiveSegment() == oldest {
		t.Fatalf("the writes filled one segment only: nothing for a checkpoint to truncate")
	}

	e := &reclaimCounter{DB: db}
	stop := housekeep(5*time.Millisecond, 5*time.Millisecond, func() []engine { return []engine{e} })
	deadline := time.Now().Add(10 * time.Second)
	for db.Log().OldestSegment() == oldest || e.reclaimed.Load() < keys*(versions-1) {
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("after 10s: oldest segment %d (was %d), %d of %d superseded versions reclaimed",
				db.Log().OldestSegment(), oldest, e.reclaimed.Load(), keys*(versions-1))
		}
		time.Sleep(time.Millisecond)
	}
	stop()

	want := fmt.Sprintf("v%d", versions-1)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%02d", i)
		if v, err := db.Get(ctx, k); err != nil || string(v) != want {
			t.Fatalf("%s after housekeeping = %q, %v; want %q", k, v, err, want)
		}
	}
}
