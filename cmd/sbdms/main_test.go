package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	sbdms "repro"
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
