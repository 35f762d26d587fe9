package buffer

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/storage"
)

// BenchmarkPinUnpinContended drives parallel Pin/Unpin across every
// core against pools of 1, 4 and 8 lock stripes, reporting the
// shard-stripe layout (stride bytes per shard, cache lines per shard)
// alongside throughput so multi-core runs can correlate the
// false-sharing padding with the observed scaling. On the 1-core CI
// container the sharded pools mostly measure overhead; the interesting
// numbers come from real multi-core hardware (ROADMAP item).
func BenchmarkPinUnpinContended(b *testing.B) {
	for _, nshards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d/procs=%d", nshards, runtime.GOMAXPROCS(0)), func(b *testing.B) {
			store, err := storage.OpenDisk(storage.NewMemDevice())
			if err != nil {
				b.Fatal(err)
			}
			const npages = 256
			ids := make([]storage.PageID, npages)
			for i := range ids {
				id, err := store.Allocate()
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
			}
			m := NewSharded(store, npages, nshards)
			// Warm the pool so the loop measures contention, not I/O.
			for _, id := range ids {
				if _, err := m.Pin(id); err != nil {
					b.Fatal(err)
				}
				if err := m.Unpin(id, false); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					id := ids[i%npages]
					i++
					if _, err := m.Pin(id); err != nil {
						b.Error(err)
						return
					}
					if err := m.Unpin(id, false); err != nil {
						b.Error(err)
						return
					}
				}
			})
			// Record the stripe layout in the benchmark output, so runs
			// on different hardware are comparable.
			b.ReportMetric(float64(ShardStride()), "stride-B")
			b.ReportMetric(float64(ShardStride()/cacheLine), "lines/shard")
			b.ReportMetric(float64(m.NumShards()), "shards")
		})
	}
}
