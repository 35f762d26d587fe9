package sbdms

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// ScenarioResult reports one flexibility scenario run (Figures 5-7):
// operation counts before/during/after the architectural change, the
// service-unavailability window observed by clients, and whether the
// system kept serving throughout.
type ScenarioResult struct {
	Name string
	// OpsBefore/During/After count successful client operations in the
	// three phases.
	OpsBefore, OpsDuring, OpsAfter int64
	// Failures counts client operations that returned errors.
	Failures int64
	// ReconfigTime is how long the architecture took to restore
	// service after the triggering event.
	ReconfigTime time.Duration
	// Events tallies kernel events observed during the run.
	Events map[core.EventType]int
	// ServedBy names the provider serving after the change.
	ServedBy string
}

// String renders the result as the experiment harness prints it.
func (r ScenarioResult) String() string {
	return fmt.Sprintf("%s: before=%d during=%d after=%d failures=%d reconfig=%v servedBy=%s",
		r.Name, r.OpsBefore, r.OpsDuring, r.OpsAfter, r.Failures, r.ReconfigTime, r.ServedBy)
}

// kvEchoBackend is a trivial in-memory KV used as an alternate provider
// in the scenarios (a stand-in "other service providing the same
// functionality", Section 3.6).
type kvEchoBackend struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemKV returns that stand-in: a mutex-guarded map, one version per
// key, unordered best-effort scans.
func NewMemKV() KVBackend { return &kvEchoBackend{m: make(map[string][]byte)} }

func (b *kvEchoBackend) Put(_ context.Context, k string, v []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[k] = append([]byte(nil), v...)
	return nil
}

func (b *kvEchoBackend) PutBatch(_ context.Context, keys []string, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("%w: %d keys, %d values", ErrBatchMismatch, len(keys), len(vals))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, k := range keys {
		b.m[k] = append([]byte(nil), vals[i]...)
	}
	return nil
}

// Import on the stand-in provider is a plain PutBatch: the map has no
// tree to bulk-build, and duplicate keys simply overwrite.
func (b *kvEchoBackend) Import(ctx context.Context, keys []string, vals [][]byte) error {
	return b.PutBatch(ctx, keys, vals)
}

func (b *kvEchoBackend) Get(_ context.Context, k string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if v, ok := b.m[k]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, k)
}

func (b *kvEchoBackend) Delete(_ context.Context, k string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.m, k)
	return nil
}

// Scan returns an unordered best-effort view: the stand-in provider is
// a plain map and serves read-committed-style scans regardless of the
// engine's ScanIsolation — scenario availability checks only count
// operations, they never assert snapshot semantics across providers.
func (b *kvEchoBackend) Scan(_ context.Context, from string, n int) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for k := range b.m {
		if k >= from && len(out) < n {
			out = append(out, k)
		}
	}
	return out, nil
}

// GetSnapshot on the stand-in provider is a plain Get: the map holds a
// single version per key, so the latest committed state is the only
// snapshot it can serve.
func (b *kvEchoBackend) GetSnapshot(ctx context.Context, k string) ([]byte, error) {
	return b.Get(ctx, k)
}

// ScanKeysSnapshot likewise degrades to the best-effort Scan.
func (b *kvEchoBackend) ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error) {
	return b.Scan(ctx, from, n)
}

func (b *kvEchoBackend) Len(context.Context) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return uint64(len(b.m)), nil
}

// ScenarioExtension reproduces Figure 5 (flexibility by extension): a
// new component — a Page Coordinator service monitoring the buffer
// manager — is published into the RUNNING architecture while a client
// workload executes. The check: the workload never stops, and the new
// service is discoverable and invocable afterwards.
func ScenarioExtension(ctx context.Context, db *DB, opsPerPhase int) (ScenarioResult, error) {
	res := ScenarioResult{Name: "F5-extension"}
	key := func(i int) string { return fmt.Sprintf("ext-%06d", i%512) }

	run := func(phaseOps *int64) error {
		for i := int64(0); i < int64(opsPerPhase); i++ {
			if err := db.Put(ctx, key(int(i)), []byte("v")); err != nil {
				res.Failures++
				continue
			}
			atomic.AddInt64(phaseOps, 1)
		}
		return nil
	}
	if err := run(&res.OpsBefore); err != nil {
		return res, err
	}

	// Runtime extension: deploy the Page Coordinator component.
	start := time.Now()
	pageCoord := &core.Component{
		Name: "page-coordinator",
		Impl: core.ImplementationFunc(func(props *core.Properties, refs map[string]*core.Ref) (core.Service, error) {
			contract := &core.Contract{
				Interface: "sbdms.storage.PageCoordinator",
				Operations: []core.OpSpec{
					{Name: "bufferStats", In: "nil", Out: "map[string]string", Semantic: "monitor.bufferStats"},
				},
				Description: core.Description{Summary: "monitors page/buffer activity (Figure 5)"},
			}
			s := core.NewService("page-coordinator", contract)
			s.Handle("bufferStats", func(ctx context.Context, req any) (any, error) {
				st := db.Pool().Stats()
				return map[string]string{
					"hits":      fmt.Sprint(st.Hits),
					"misses":    fmt.Sprint(st.Misses),
					"evictions": fmt.Sprint(st.Evictions),
					"frames":    fmt.Sprint(db.Pool().PoolSize()),
				}, nil
			})
			return core.WithPing(s), nil
		}),
	}
	var during int64
	done := make(chan error, 1)
	go func() { done <- db.Kernel().DeployComponent(ctx, pageCoord) }()
	if err := run(&during); err != nil {
		return res, err
	}
	if err := <-done; err != nil {
		return res, err
	}
	res.OpsDuring = during
	res.ReconfigTime = time.Since(start)

	if err := run(&res.OpsAfter); err != nil {
		return res, err
	}
	// The new functionality is available for reuse.
	ref := db.Kernel().Ref("sbdms.storage.PageCoordinator", nil)
	out, err := ref.Invoke(ctx, "bufferStats", nil)
	if err != nil {
		return res, fmt.Errorf("extension not invocable: %w", err)
	}
	if m, ok := out.(map[string]string); ok {
		res.ServedBy = "page-coordinator (frames=" + m["frames"] + ")"
	}
	res.Events = db.Kernel().Bus().CountByType()
	return res, nil
}

// ScenarioSelection reproduces Figure 6 (flexibility by selection): the
// primary KV provider asks the coordinator to release resources; the
// coordinator steers clients to an alternate provider of the same
// interface, then readmits the primary. The check: zero failed client
// operations across the switch.
func ScenarioSelection(ctx context.Context, db *DB, opsPerPhase int) (ScenarioResult, error) {
	res := ScenarioResult{Name: "F6-selection"}
	if db.kvRef == nil {
		return res, fmt.Errorf("sbdms: selection scenario needs a service-based profile")
	}
	// Alternate provider of the same interface, pre-warmed with the
	// same keys so reads succeed on both.
	alt := NewMemKV()
	altSvc := NewKVService("kv-standby", alt)
	if err := db.deploy(ctx, altSvc, map[string]string{"role": "standby"}); err != nil {
		return res, err
	}
	key := func(i int) string { return fmt.Sprintf("sel-%06d", i%256) }
	for i := 0; i < 256; i++ {
		if err := alt.Put(ctx, key(i), []byte("warm")); err != nil {
			return res, err
		}
	}

	run := func(phase *int64) {
		for i := 0; i < opsPerPhase; i++ {
			var err error
			if i%2 == 0 {
				err = db.Put(ctx, key(i), []byte("v"))
			} else {
				_, err = db.Get(ctx, key(i-1))
			}
			if err != nil {
				res.Failures++
				continue
			}
			*phase++
		}
	}
	run(&res.OpsBefore)

	// Figure 6: "Release Resources" on the coordinator.
	start := time.Now()
	primary := db.kvRef.Current()
	if primary == "" {
		primary = "kv"
	}
	if _, err := db.kernel.Coordinator().Invoke(ctx, core.OpReleaseResources,
		core.ReleaseResourcesRequest{Service: primary}); err != nil {
		return res, err
	}
	res.ReconfigTime = time.Since(start)
	run(&res.OpsDuring)
	if _, err := db.kvRef.Resolve(); err != nil {
		return res, err
	}
	res.ServedBy = db.kvRef.Current()

	// Restore the primary.
	if _, err := db.kernel.Coordinator().Invoke(ctx, core.OpReleaseResources,
		core.ReleaseResourcesRequest{Service: primary, Restore: true}); err != nil {
		return res, err
	}
	run(&res.OpsAfter)
	res.Events = db.Kernel().Bus().CountByType()
	return res, nil
}

// ScenarioAdaptation reproduces Figure 7 (flexibility by adaptation):
// the only KV provider fails; no same-interface alternate exists, but a
// legacy store with a DIFFERENT interface does. The coordinator
// generates an adaptor service around it and re-registers the
// interface. The check: clients keep operating after a bounded
// reconfiguration window, served through the adaptor.
func ScenarioAdaptation(ctx context.Context, db *DB, opsPerPhase int) (ScenarioResult, error) {
	res := ScenarioResult{Name: "F7-adaptation"}
	if db.kvRef == nil {
		return res, fmt.Errorf("sbdms: adaptation scenario needs a service-based profile")
	}
	// A legacy storage service: same semantics, alien interface
	// (different op names and payload shapes).
	legacy := NewMemKV()
	legacyContract := &core.Contract{
		Interface: "sbdms.legacy.Store",
		Operations: []core.OpSpec{
			{Name: "fetch", In: "string", Out: "[]byte", Semantic: "kv.get"},
			{Name: "store", In: "sbdms.legacyPut", Out: "bool", Semantic: "kv.put"},
			{Name: "storeMany", In: "sbdms.legacyBatch", Out: "bool", Semantic: "kv.putBatch"},
			// Bulk loads degrade to a plain batch store: the legacy map
			// has no tree to build, but the semantic is satisfied.
			{Name: "loadAll", In: "sbdms.legacyBatch", Out: "bool", Semantic: "kv.import"},
			{Name: "remove", In: "string", Out: "bool", Semantic: "kv.delete"},
			{Name: "list", In: "sbdms.legacyScan", Out: "[]string", Semantic: "kv.scan"},
			// The legacy store is single-version: its current state IS
			// its newest stable snapshot, so the snapshot-read semantics
			// map onto plain (lock-free) reads under alien names.
			{Name: "peek", In: "string", Out: "[]byte", Semantic: "kv.getSnapshot"},
			{Name: "listStable", In: "sbdms.legacyScan", Out: "[]string", Semantic: "kv.scanSnapshot"},
			{Name: "size", In: "nil", Out: "uint64", Semantic: "kv.len"},
		},
		Description: core.Description{Summary: "legacy store with incompatible interface (Figure 7)"},
	}
	type legacyPut struct {
		K string
		V []byte
	}
	type legacyScan struct {
		From string
		N    int
	}
	type legacyBatch struct {
		Ks []string
		Vs [][]byte
	}
	lsvc := core.NewService("legacy-store", legacyContract)
	lsvc.Handle("fetch", func(ctx context.Context, req any) (any, error) { return legacy.Get(ctx, req.(string)) })
	lsvc.Handle("store", func(ctx context.Context, req any) (any, error) {
		p := req.(legacyPut)
		return true, legacy.Put(ctx, p.K, p.V)
	})
	lsvc.Handle("storeMany", func(ctx context.Context, req any) (any, error) {
		p := req.(legacyBatch)
		return true, legacy.PutBatch(ctx, p.Ks, p.Vs)
	})
	lsvc.Handle("loadAll", func(ctx context.Context, req any) (any, error) {
		p := req.(legacyBatch)
		return true, legacy.Import(ctx, p.Ks, p.Vs)
	})
	lsvc.Handle("remove", func(ctx context.Context, req any) (any, error) { return true, legacy.Delete(ctx, req.(string)) })
	lsvc.Handle("list", func(ctx context.Context, req any) (any, error) {
		p := req.(legacyScan)
		return legacy.Scan(ctx, p.From, p.N)
	})
	lsvc.Handle("peek", func(ctx context.Context, req any) (any, error) { return legacy.Get(ctx, req.(string)) })
	lsvc.Handle("listStable", func(ctx context.Context, req any) (any, error) {
		p := req.(legacyScan)
		return legacy.Scan(ctx, p.From, p.N)
	})
	lsvc.Handle("size", func(ctx context.Context, req any) (any, error) { return legacy.Len(ctx) })
	core.WithPing(lsvc)
	if err := db.deploy(ctx, lsvc, map[string]string{"legacy": "true"}); err != nil {
		return res, err
	}

	// Transformation schemas bridging the payload shapes.
	repo := db.kernel.Repository()
	repo.PutTransform("sbdms.KVKeyRequest", "string", func(v any) (any, error) {
		return v.(KVKeyRequest).Key, nil
	})
	repo.PutTransform("sbdms.KVLenRequest", "nil", func(any) (any, error) { return nil, nil })
	repo.PutTransform("sbdms.KVPutRequest", "sbdms.legacyPut", func(v any) (any, error) {
		r := v.(KVPutRequest)
		return legacyPut{K: r.Key, V: r.Val}, nil
	})
	repo.PutTransform("sbdms.KVScanRequest", "sbdms.legacyScan", func(v any) (any, error) {
		r := v.(KVScanRequest)
		return legacyScan{From: r.Key, N: r.N}, nil
	})
	repo.PutTransform("sbdms.KVBatchRequest", "sbdms.legacyBatch", func(v any) (any, error) {
		r := v.(KVBatchRequest)
		return legacyBatch{Ks: r.Keys, Vs: r.Vals}, nil
	})

	key := func(i int) string { return fmt.Sprintf("adp-%06d", i%256) }
	run := func(phase *int64) {
		for i := 0; i < opsPerPhase; i++ {
			var err error
			if i%2 == 0 {
				err = db.Put(ctx, key(i), []byte("v"))
			} else {
				_, err = db.Get(ctx, key(i-1))
			}
			if err != nil {
				res.Failures++
				continue
			}
			*phase++
		}
	}
	run(&res.OpsBefore)

	// Fail every same-interface KV provider ("Page Manager not
	// available").
	start := time.Now()
	var failedAny bool
	for _, reg := range db.kernel.Registry().Discover(IfaceKV) {
		if bs, ok := reg.Invoker.(*core.BaseService); ok {
			bs.SetState(core.StateFailed)
			failedAny = true
		}
		if bound, ok := reg.Invoker.(*core.BoundService); ok {
			if bs, ok := bound.Service.(*core.BaseService); ok {
				bs.SetState(core.StateFailed)
				failedAny = true
			}
		}
	}
	if !failedAny {
		return res, fmt.Errorf("sbdms: no failable KV provider found")
	}
	// One probe sweep detects the failure and repairs via adaptation.
	db.kernel.Coordinator().ProbeOnce(ctx)
	res.ReconfigTime = time.Since(start)

	run(&res.OpsDuring)
	if _, err := db.kvRef.Resolve(); err != nil {
		return res, err
	}
	res.ServedBy = db.kvRef.Current()
	run(&res.OpsAfter)
	res.Events = db.Kernel().Bus().CountByType()
	return res, nil
}
