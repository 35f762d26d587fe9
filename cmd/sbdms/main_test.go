package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sbdms "repro"
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
	// kill -9: stop the background goroutines, flush and close nothing.
	_ = db.Kernel().Stop(ctx)
	_ = db.Txns().StopCheckpointFlusher()

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
