package buffer

import (
	"testing"

	"repro/internal/storage"
)

// memStore is a minimal PageStore for pool tests.
func memStore(t *testing.T) *storage.DiskManager {
	t.Helper()
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDirtyPageTableTracksRecLSN: the pool's dirty-page table reports
// each dirty page with the LSN of the first record that dirtied it, and
// drops entries once the page is flushed.
func TestDirtyPageTableTracksRecLSN(t *testing.T) {
	store := memStore(t)
	m := NewSharded(store, 16, 4)
	id, err := store.Allocate()
	if err != nil {
		t.Fatal(err)
	}

	if got := m.DirtyPages(); len(got) != 0 {
		t.Fatalf("fresh pool has dirty pages: %+v", got)
	}

	// Mutate-and-stamp like the access layer: one record per pin round.
	stamp := func(lsn uint64) {
		f, err := m.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Page().Payload()[0]++
		f.Page().SetLSN(lsn)
		if err := m.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
	}
	stamp(100)
	stamp(200) // recLSN must stay at the FIRST record of the episode

	dp := m.DirtyPages()
	if len(dp) != 1 || dp[0].ID != id {
		t.Fatalf("dirty pages = %+v", dp)
	}
	if dp[0].RecLSN != 100 {
		t.Fatalf("recLSN = %d, want 100 (first record since clean)", dp[0].RecLSN)
	}

	// Flushing the snapshot clears the entry...
	if err := m.FlushPages([]storage.PageID{id}); err != nil {
		t.Fatal(err)
	}
	if got := m.DirtyPages(); len(got) != 0 {
		t.Fatalf("dirty after FlushPages: %+v", got)
	}
	// ...and the next episode starts a fresh recLSN.
	stamp(300)
	dp = m.DirtyPages()
	if len(dp) != 1 || dp[0].RecLSN != 300 {
		t.Fatalf("second episode = %+v, want recLSN 300", dp)
	}
}

// TestDirtyPageTableUnloggedWrites: pages dirtied without a WAL stamp
// report recLSN 0, so checkpoints flush them without letting them drag
// the truncation horizon to zero.
func TestDirtyPageTableUnloggedWrites(t *testing.T) {
	store := memStore(t)
	m := NewSharded(store, 8, 2)
	id, err := store.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	f.Page().Payload()[0] = 0xAB // no LSN stamp
	if err := m.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	dp := m.DirtyPages()
	if len(dp) != 1 || dp[0].RecLSN != 0 {
		t.Fatalf("unlogged dirty page = %+v, want recLSN 0", dp)
	}
}

// TestShardStrideWholeCacheLines pins the false-sharing fix: shards are
// laid out contiguously at a stride that is a whole multiple of the
// cache line, so neighbouring stripes never share a line.
func TestShardStrideWholeCacheLines(t *testing.T) {
	if ShardStride()%cacheLine != 0 {
		t.Fatalf("shard stride %d is not cache-line aligned", ShardStride())
	}
	if ShardStride() < cacheLine {
		t.Fatalf("shard stride %d below one cache line", ShardStride())
	}
}
