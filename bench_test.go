package sbdms

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The benchmarks below regenerate every experiment in EXPERIMENTS.md;
// cmd/sbench prints the same numbers as formatted tables. Names follow
// the experiment index in DESIGN.md (F* = paper figures, G* = the
// future-work studies the paper proposes).

func benchDB(b *testing.B, g Granularity, binding core.Binding) *DB {
	b.Helper()
	db, err := Open(Options{
		Granularity:  g,
		BufferFrames: 512,
		Binding:      binding,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close(context.Background()) })
	return db
}

func runKVMix(b *testing.B, db *DB, mix workload.Mix) {
	b.Helper()
	const keys = 2000
	if err := Preload(db, keys, 100); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewKV(workload.KVConfig{Seed: 1, Keys: keys, Mix: mix, Zipfian: true})
	ops := gen.Ops(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		switch op.Kind {
		case workload.OpRead:
			if _, err := db.Get(ctx, op.Key); err != nil && !IsKeyNotFound(err) {
				b.Fatal(err)
			}
		case workload.OpWrite:
			if err := db.Put(ctx, op.Key, op.Val); err != nil {
				b.Fatal(err)
			}
		case workload.OpScan:
			if _, err := db.ScanKeys(ctx, op.Key, op.ScanLen); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- F1: Figure 1, architecture evolution ------------------------------
// The same KV engine reached as a monolith (direct calls), as a
// statically wired component system (coarse service, resolved ref), and
// as the late-bound service architecture.

func BenchmarkF1_ArchitectureEvolution_Monolithic(b *testing.B) {
	runKVMix(b, benchDB(b, Monolithic, nil), workload.MixB)
}

func BenchmarkF1_ArchitectureEvolution_Component(b *testing.B) {
	runKVMix(b, benchDB(b, Coarse, nil), workload.MixB)
}

func BenchmarkF1_ArchitectureEvolution_ServiceBased(b *testing.B) {
	runKVMix(b, benchDB(b, Layered, nil), workload.MixB)
}

// --- F2: Figure 2, layered composition end to end ----------------------
// SQL through the Data Service layer, exercising all four layers.

func BenchmarkF2_LayeredComposition_SQL(b *testing.B) {
	ctx := context.Background()
	db := benchDB(b, Layered, nil)
	if _, err := db.Exec(ctx, "CREATE TABLE users (id INT, name TEXT, age INT)"); err != nil {
		b.Fatal(err)
	}
	for i, row := range workload.UserRows(7, 2000) {
		q := fmt.Sprintf("INSERT INTO users VALUES (%d, '%s', %d)", row[0].Int, row[1].Str, row[2].Int)
		if _, err := db.Exec(ctx, q); err != nil {
			b.Fatalf("row %d: %v", i, err)
		}
	}
	if _, err := db.Exec(ctx, "CREATE INDEX idx_age ON users (age)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		age := 18 + i%60
		res, err := db.Exec(ctx, fmt.Sprintf("SELECT COUNT(*) FROM users WHERE age = %d", age))
		if err != nil || len(res.Rows) != 1 {
			b.Fatal(err)
		}
	}
}

// --- F3/F4: Figures 3-4, SCA component and composite wiring ------------

func BenchmarkF3F4_CompositeWiring(b *testing.B) {
	ctx := context.Background()
	impl := func(name string) core.Implementation {
		return core.ImplementationFunc(func(props *core.Properties, refs map[string]*core.Ref) (core.Service, error) {
			s := core.NewService(name, &core.Contract{
				Interface:  "bench.Component",
				Operations: []core.OpSpec{{Name: "noop", In: "nil", Out: "nil"}},
			})
			s.Handle("noop", func(ctx context.Context, req any) (any, error) { return nil, nil })
			return s, nil
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := core.NewKernel(core.WithCoordinatorConfig(core.CoordinatorConfig{ProbePeriod: 0}))
		// A recursive composite of 3 nested levels x 4 components.
		root := core.NewComposite("root")
		for l := 0; l < 3; l++ {
			child := core.NewComposite(fmt.Sprintf("level%d", l))
			for c := 0; c < 4; c++ {
				name := fmt.Sprintf("c%d-%d-%d", i, l, c)
				child.Add(&core.Component{
					Name:       name,
					Impl:       impl(name),
					Properties: map[string]string{"tier": fmt.Sprint(l)},
				})
			}
			root.AddComposite(child)
		}
		if err := k.Deploy(ctx, root); err != nil {
			b.Fatal(err)
		}
		if err := k.Stop(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F5/F6/F7: the flexibility scenarios --------------------------------

func BenchmarkF5_Extension(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := benchDB(b, Coarse, nil)
		b.StartTimer()
		res, err := ScenarioExtension(ctx, db, 200)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failures != 0 {
			b.Fatalf("failures: %d", res.Failures)
		}
		b.StopTimer()
		_ = db.Close(ctx)
		b.StartTimer()
	}
}

func BenchmarkF6_Selection(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := benchDB(b, Coarse, nil)
		b.StartTimer()
		res, err := ScenarioSelection(ctx, db, 200)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failures != 0 {
			b.Fatalf("failures: %d", res.Failures)
		}
		b.StopTimer()
		_ = db.Close(ctx)
		b.StartTimer()
	}
}

func BenchmarkF7_Adaptation(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := benchDB(b, Coarse, nil)
		b.StartTimer()
		res, err := ScenarioAdaptation(ctx, db, 200)
		if err != nil {
			b.Fatal(err)
		}
		if res.OpsAfter == 0 {
			b.Fatal("system stopped operating")
		}
		b.StopTimer()
		_ = db.Close(ctx)
		b.StartTimer()
	}
}

// --- G1: granularity sweep (the paper's future-work study) -------------

func benchGranularity(b *testing.B, g Granularity, mix workload.Mix) {
	runKVMix(b, benchDB(b, g, nil), mix)
}

func BenchmarkG1_Granularity_Monolithic_ReadMostly(b *testing.B) {
	benchGranularity(b, Monolithic, workload.MixB)
}

func BenchmarkG1_Granularity_Coarse_ReadMostly(b *testing.B) {
	benchGranularity(b, Coarse, workload.MixB)
}

func BenchmarkG1_Granularity_Layered_ReadMostly(b *testing.B) {
	benchGranularity(b, Layered, workload.MixB)
}

func BenchmarkG1_Granularity_Fine_ReadMostly(b *testing.B) {
	benchGranularity(b, Fine, workload.MixB)
}

func BenchmarkG1_Granularity_Monolithic_UpdateHeavy(b *testing.B) {
	benchGranularity(b, Monolithic, workload.MixA)
}

func BenchmarkG1_Granularity_Coarse_UpdateHeavy(b *testing.B) {
	benchGranularity(b, Coarse, workload.MixA)
}

func BenchmarkG1_Granularity_Layered_UpdateHeavy(b *testing.B) {
	benchGranularity(b, Layered, workload.MixA)
}

func BenchmarkG1_Granularity_Fine_UpdateHeavy(b *testing.B) {
	benchGranularity(b, Fine, workload.MixA)
}

// TCP-calibrated per-hop cost (see MeasureTCPRoundTrip).

func BenchmarkG1_Granularity_Coarse_TCPHop(b *testing.B) {
	rtt, err := MeasureTCPRoundTrip(100)
	if err != nil {
		b.Fatal(err)
	}
	runKVMix(b, benchDB(b, Coarse, core.DelayBinding{Delay: rtt}), workload.MixB)
}

func BenchmarkG1_Granularity_Layered_TCPHop(b *testing.B) {
	rtt, err := MeasureTCPRoundTrip(100)
	if err != nil {
		b.Fatal(err)
	}
	runKVMix(b, benchDB(b, Layered, core.DelayBinding{Delay: rtt}), workload.MixB)
}

// --- G2: embedded / small-footprint profile ----------------------------

func BenchmarkG2_Embedded_SmallPool(b *testing.B) {
	db, err := Open(Options{
		Granularity:  Coarse,
		BufferFrames: 8, // embedded-scale memory
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close(context.Background()) })
	runKVMix(b, db, workload.MixB)
}

// --- G3: client-proximity selection -------------------------------------

func BenchmarkG3_Proximity_NearSelection(b *testing.B) {
	benchProximity(b, true)
}

func BenchmarkG3_Proximity_NoSelection(b *testing.B) {
	benchProximity(b, false)
}

// benchProximity registers a near (fast) and far (slow) provider; with
// proximity selection on, the tag-aware selector finds the near one.
func benchProximity(b *testing.B, selectNear bool) {
	ctx := context.Background()
	reg := core.NewRegistry(nil)
	mk := func(name, node string, delay time.Duration) {
		s := core.NewService(name, &core.Contract{
			Interface:  "bench.Store",
			Operations: []core.OpSpec{{Name: "get", In: "string", Out: "string"}},
		})
		s.Handle("get", func(ctx context.Context, req any) (any, error) {
			if delay > 0 {
				time.Sleep(delay)
			}
			return "v", nil
		})
		_ = s.Start(ctx)
		if err := reg.RegisterService(s, map[string]string{"node": node}); err != nil {
			b.Fatal(err)
		}
	}
	mk("a-far-store", "far", 200*time.Microsecond)
	mk("b-near-store", "near", 0)
	var sel core.Selector
	if selectNear {
		sel = core.SelectByTag("node", "near", nil)
	}
	ref := core.NewRef(reg, "bench.Store", sel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Invoke(ctx, "get", "k"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- G4: late binding and adaptor overhead ablation ---------------------

func BenchmarkG4_DirectCall(b *testing.B) {
	ctx := context.Background()
	svc := newNoopService(b, "direct")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Invoke(ctx, "noop", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkG4_CachedRef(b *testing.B) {
	ctx := context.Background()
	reg := core.NewRegistry(nil)
	svc := newNoopService(b, "svc")
	if err := reg.RegisterService(svc, nil); err != nil {
		b.Fatal(err)
	}
	ref := core.NewRef(reg, "bench.Noop", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Invoke(ctx, "noop", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkG4_UncachedRef(b *testing.B) {
	ctx := context.Background()
	reg := core.NewRegistry(nil)
	svc := newNoopService(b, "svc")
	if err := reg.RegisterService(svc, nil); err != nil {
		b.Fatal(err)
	}
	ref := core.NewUncachedRef(reg, "bench.Noop", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Invoke(ctx, "noop", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkG4_AdaptorCall(b *testing.B) {
	ctx := context.Background()
	svc := newNoopService(b, "svc")
	required := &core.Contract{
		Interface:  "bench.Other",
		Operations: []core.OpSpec{{Name: "doIt", In: "nil", Out: "nil", Semantic: "bench.noop"}},
	}
	ad, err := core.GenerateAdaptor("ad", required, svc.Contract(), svc, core.NewRepository())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ad.Invoke(ctx, "doIt", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func newNoopService(b *testing.B, name string) *core.BaseService {
	b.Helper()
	s := core.NewService(name, &core.Contract{
		Interface:  "bench.Noop",
		Operations: []core.OpSpec{{Name: "noop", In: "nil", Out: "nil", Semantic: "bench.noop"}},
	})
	s.Handle("noop", func(ctx context.Context, req any) (any, error) { return nil, nil })
	if err := s.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	return s
}

// --- contended buffer pool: sharded vs single-mutex baseline -----------
// Parallel Pin/Unpin from a fixed number of goroutines over a page set
// larger than the pool, so the pool mutex (or shard mutexes) sit on the
// hot path of both hits and miss-driven evictions.

func benchBufferContention(b *testing.B, nshards, workers int) {
	disk, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		b.Fatal(err)
	}
	pool := buffer.NewSharded(disk, 512, nshards)
	const npages = 2048
	ids := make([]storage.PageID, npages)
	for i := range ids {
		if ids[i], err = disk.Allocate(); err != nil {
			b.Fatal(err)
		}
	}
	per := b.N/workers + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				id := ids[rng.Intn(npages)]
				if _, err := pool.Pin(id); err != nil {
					b.Error(err)
					return
				}
				if err := pool.Unpin(id, false); err != nil {
					b.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

func BenchmarkBufferContention_SingleLock_G1(b *testing.B)  { benchBufferContention(b, 1, 1) }
func BenchmarkBufferContention_SingleLock_G4(b *testing.B)  { benchBufferContention(b, 1, 4) }
func BenchmarkBufferContention_SingleLock_G16(b *testing.B) { benchBufferContention(b, 1, 16) }
func BenchmarkBufferContention_Sharded_G1(b *testing.B)     { benchBufferContention(b, 8, 1) }
func BenchmarkBufferContention_Sharded_G4(b *testing.B)     { benchBufferContention(b, 8, 4) }
func BenchmarkBufferContention_Sharded_G16(b *testing.B)    { benchBufferContention(b, 8, 16) }

// --- contended WAL commit: group commit ---------------------------------
// N committers each append a commit record and flush it, against a
// file-backed log (real fsync); concurrent committers share one sync.

func benchWALCommit(b *testing.B, committers int) {
	dir, err := wal.NewFileSegmentDir(filepath.Join(b.TempDir(), "wal"))
	if err != nil {
		b.Fatal(err)
	}
	l, err := wal.OpenDir(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	per := b.N/committers + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.Append(&wal.Record{Txn: id, Type: wal.RecCommit})
				if err != nil {
					b.Error(err)
					return
				}
				if err := l.Flush(lsn + 1); err != nil {
					b.Error(err)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	b.StopTimer()
	commits := float64(per * committers)
	b.ReportMetric(float64(l.Syncs())/commits, "syncs/commit")
}

func BenchmarkWALCommit_GroupCommit_C1(b *testing.B)  { benchWALCommit(b, 1) }
func BenchmarkWALCommit_GroupCommit_C4(b *testing.B)  { benchWALCommit(b, 4) }
func BenchmarkWALCommit_GroupCommit_C16(b *testing.B) { benchWALCommit(b, 16) }
