package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

func TestShardedConstruction(t *testing.T) {
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	m := NewSharded(d, 256, 8)
	if m.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", m.NumShards())
	}
	if m.PoolSize() != 256 {
		t.Fatalf("PoolSize = %d, want 256", m.PoolSize())
	}
	if got := len(m.ShardStats()); got != 8 {
		t.Fatalf("ShardStats len = %d", got)
	}
	// Shard counts are clamped and rounded to powers of two.
	if s := NewSharded(d, 256, 7).NumShards(); s != 4 {
		t.Fatalf("7 shards rounded to %d, want 4", s)
	}
	if s := NewSharded(d, 2, 16).NumShards(); s != 2 {
		t.Fatalf("shards clamped to %d, want 2 (nframes)", s)
	}
	// The automatic default keeps small pools single-striped.
	if s := New(d, 8, NewLRU()).NumShards(); s != 1 {
		t.Fatalf("small pool shards = %d, want 1", s)
	}
	if s := New(d, 1024, NewLRU()).NumShards(); s != 16 {
		t.Fatalf("large pool shards = %d, want 16", s)
	}
}

func TestShardedPagesSpreadAcrossShards(t *testing.T) {
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	m := NewSharded(d, 256, 8)
	seen := make(map[*shard]int)
	for i := 0; i < 256; i++ {
		id, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		seen[m.shardFor(id)]++
	}
	if len(seen) != 8 {
		t.Fatalf("sequential pages landed on %d/8 shards", len(seen))
	}
	for s, n := range seen {
		if n < 8 {
			t.Fatalf("shard %p got only %d/256 pages — hash badly skewed", s, n)
		}
	}
}

func TestShardedStatsAggregate(t *testing.T) {
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	m := NewSharded(d, 64, 4)
	ids := allocPages(t, d, 32)
	for _, id := range ids {
		f, err := m.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = f
		_ = m.Unpin(id, false)
	}
	for _, id := range ids {
		f, err := m.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = f
		_ = m.Unpin(id, false)
	}
	st := m.Stats()
	if st.Misses != 32 || st.Hits != 32 {
		t.Fatalf("aggregate stats = %+v", st)
	}
	var sum Stats
	for _, s := range m.ShardStats() {
		sum.add(s)
	}
	if sum != st {
		t.Fatalf("shard stats %+v do not sum to aggregate %+v", sum, st)
	}
}

// TestShardedConcurrentStress hammers Pin/Unpin/NewPage/Stats
// from many goroutines across shards (run with -race), then checks
// pin-count and stats invariants.
func TestShardedConcurrentStress(t *testing.T) {
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	m := NewSharded(d, 256, 8)
	const npages = 512
	ids := make([]storage.PageID, npages)
	for i := range ids {
		if ids[i], err = d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 16
	const opsPer = 1500
	var pins atomic.Uint64 // successful Pin calls
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(20) {
				case 0:
					// Allocate a fresh page (stays pinned until unpin).
					f, err := m.NewPage(storage.PageTypeHeap)
					if err != nil {
						if errors.Is(err, ErrPoolExhausted) {
							continue
						}
						errCh <- err
						return
					}
					if err := m.Unpin(f.ID, true); err != nil {
						errCh <- err
						return
					}
				case 1:
					_ = m.Stats()
					_ = m.ShardStats()
				default:
					pi := rng.Intn(npages)
					id := ids[pi]
					f, err := m.Pin(id)
					if err != nil {
						if errors.Is(err, ErrPoolExhausted) {
							continue
						}
						errCh <- err
						return
					}
					pins.Add(1)
					// Only the owning worker writes a page's payload:
					// concurrent pins of one page are legal, and frame
					// bytes are not synchronized between pin holders.
					dirty := pi%workers == int(seed-1) && rng.Intn(4) == 0
					if dirty {
						// Stamp the page with its own id so post-flush
						// integrity is checkable.
						binaryPutID(f.Page().Payload(), uint64(id))
					}
					if m.PinCount(id) < 1 {
						errCh <- fmt.Errorf("page %d pinned but PinCount < 1", id)
						return
					}
					if err := m.Unpin(id, dirty); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// Every pin was matched by an unpin.
	for _, id := range ids {
		if pc := m.PinCount(id); pc != 0 {
			t.Fatalf("page %d ends with pin count %d", id, pc)
		}
	}
	// Every successful Pin was counted exactly once as hit or miss.
	st := m.Stats()
	if st.Hits+st.Misses != pins.Load() {
		t.Fatalf("hits+misses = %d, want %d successful pins", st.Hits+st.Misses, pins.Load())
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Dirtied pages carry their own id: the stamp either round-tripped
	// or the page was never dirtied (all zero).
	buf := make([]byte, storage.PageSize)
	for _, id := range ids {
		if err := d.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		got := binaryGetID(storage.WrapPage(id, buf).Payload())
		if got != 0 && got != uint64(id) {
			t.Fatalf("page %d holds stamp %d — cross-page corruption", id, got)
		}
	}
}

func binaryPutID(p []byte, v uint64) {
	for i := 0; i < 8; i++ {
		p[i] = byte(v >> (8 * i))
	}
}

func binaryGetID(p []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(p[i]) << (8 * i)
	}
	return v
}
