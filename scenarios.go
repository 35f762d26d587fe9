package sbdms

import (
	"context"
	"encoding/gob"
	"fmt"
	"time"

	"repro/internal/core"
)

// ScenarioResult reports one flexibility scenario run (Figures 5-7):
// operation counts before/during/after the architectural change, the
// service-unavailability window observed by clients, and whether the
// clients kept their data across the change. Every phase writes fresh
// keys and reads keys acked in earlier phases, and after the last
// phase every acked key is read back, so a switch to a provider that
// does not serve the clients' data shows as StaleReads and LostAcked,
// not as an unnoticed success.
type ScenarioResult struct {
	Name string
	// OpsBefore/During/After count client operations served in the
	// three phases.
	OpsBefore, OpsDuring, OpsAfter int64
	// Failures counts client operations that returned an error other
	// than a missing key.
	Failures int64
	// StaleReads counts phase reads that returned anything other than
	// the key's last acked value, a missing key included.
	StaleReads int64 `json:"staleReads"`
	// LostAcked counts acked keys whose read-back after the last phase
	// did not return the last acked value.
	LostAcked int64 `json:"lostAcked"`
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
	return fmt.Sprintf("%s: before=%d during=%d after=%d failures=%d staleReads=%d lostAcked=%d reconfig=%v servedBy=%s",
		r.Name, r.OpsBefore, r.OpsDuring, r.OpsAfter, r.Failures, r.StaleReads, r.LostAcked, r.ReconfigTime, r.ServedBy)
}

// phaseDriver is the client workload of every flexibility scenario.
// Phase p writes the fresh keys <name>-p<p>-<j>, each several times
// with a per-key sequence value; from the second phase on it
// alternates those writes with reads of keys acked in earlier phases.
type phaseDriver struct {
	ctx   context.Context
	db    *DB
	res   *ScenarioResult
	ops   int
	phase int
	keys  []string          // every key written, in first-write order
	acked map[string]string // key -> last acked value
	reads int               // reads issued, to spread them over the keys
}

func newPhaseDriver(ctx context.Context, db *DB, res *ScenarioResult, opsPerPhase int) *phaseDriver {
	return &phaseDriver{ctx: ctx, db: db, res: res, ops: opsPerPhase, acked: make(map[string]string)}
}

// run drives one phase and adds the operations served to *served.
func (d *phaseDriver) run(served *int64) {
	earlier := d.keys
	perPhase := max(1, d.ops/4)
	writes := 0
	for i := 0; i < d.ops; i++ {
		if len(earlier) > 0 && i%2 == 1 {
			k := earlier[d.reads%len(earlier)]
			d.reads++
			if d.check(k, &d.res.StaleReads) {
				*served++
			}
			continue
		}
		k := fmt.Sprintf("%s-p%d-%d", d.res.Name, d.phase, writes%perPhase)
		v := fmt.Sprintf("%s#%d", k, writes/perPhase+1)
		if writes < perPhase {
			d.keys = append(d.keys, k)
		}
		writes++
		if err := d.db.Put(d.ctx, k, []byte(v)); err != nil {
			delete(d.acked, k) // the write's outcome is unknown
			d.res.Failures++
			continue
		}
		d.acked[k] = v
		*served++
	}
	d.phase++
}

// readBack reads every acked key after the last phase.
func (d *phaseDriver) readBack() {
	for _, k := range d.keys {
		d.check(k, &d.res.LostAcked)
	}
}

// check reads k and reports whether the read was served. A served
// value other than the last acked one, a missing key included, counts
// in *wrong.
func (d *phaseDriver) check(k string, wrong *int64) bool {
	v, err := d.db.Get(d.ctx, k)
	if err != nil && !IsKeyNotFound(err) {
		d.res.Failures++
		return false
	}
	if want, ok := d.acked[k]; ok && (err != nil || string(v) != want) {
		*wrong++
	}
	return true
}

// ScenarioExtension reproduces Figure 5 (flexibility by extension): a
// new component — a Page Coordinator service monitoring the buffer
// manager — is published into the RUNNING architecture while a client
// workload executes. The check: the workload never stops, and the new
// service is discoverable and invocable afterwards.
func ScenarioExtension(ctx context.Context, db *DB, opsPerPhase int) (ScenarioResult, error) {
	res := ScenarioResult{Name: "F5-extension"}
	d := newPhaseDriver(ctx, db, &res, opsPerPhase)
	d.run(&res.OpsBefore)

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
	done := make(chan error, 1)
	go func() { done <- db.Kernel().DeployComponent(ctx, pageCoord) }()
	d.run(&res.OpsDuring)
	if err := <-done; err != nil {
		return res, err
	}
	res.ReconfigTime = time.Since(start)

	d.run(&res.OpsAfter)
	d.readBack()
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
// coordinator steers clients to a standby provider of the same
// interface over the same store, then readmits the primary. The check:
// no failed client operation and no lost or stale data across the
// switch.
func ScenarioSelection(ctx context.Context, db *DB, opsPerPhase int) (ScenarioResult, error) {
	res := ScenarioResult{Name: "F6-selection"}
	if err := db.DeployStandby(ctx, "kv-standby", map[string]string{"role": "standby"}); err != nil {
		return res, err
	}
	d := newPhaseDriver(ctx, db, &res, opsPerPhase)
	d.run(&res.OpsBefore)

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
	d.run(&res.OpsDuring)
	if _, err := db.kvRef.Resolve(); err != nil {
		return res, err
	}
	res.ServedBy = db.kvRef.Current()

	// Restore the primary.
	if _, err := db.kernel.Coordinator().Invoke(ctx, core.OpReleaseResources,
		core.ReleaseResourcesRequest{Service: primary, Restore: true}); err != nil {
		return res, err
	}
	d.run(&res.OpsAfter)
	d.readBack()
	res.Events = db.Kernel().Bus().CountByType()
	return res, nil
}

// DeployStandby deploys a second KV provider, name, over the engine's
// own store: the direct path with no record hop. The coordinator can
// steer clients to it when the primary releases its resources (Figure
// 6); releasing the primary then releases its service stack, not the
// data. Like every service of the profile, the standby goes through
// the configured binding and stores its contract in the repository.
func (db *DB) DeployStandby(ctx context.Context, name string, tags map[string]string) error {
	if db.kvRef == nil {
		return fmt.Errorf("sbdms: a standby provider needs a service-based profile")
	}
	return db.deploy(ctx, NewKVService(name, db.kv), tags)
}

// Payloads of the legacy store's alien interface (Figure 7), registered
// with gob so the store and its generated adaptor work over a network
// binding.
type (
	legacyPut struct {
		K string
		V []byte
	}
	legacyScan struct {
		From string
		N    int
	}
	legacyBatch struct {
		Ks []string
		Vs [][]byte
	}
)

func init() {
	gob.Register(legacyPut{})
	gob.Register(legacyScan{})
	gob.Register(legacyBatch{})
}

// ScenarioAdaptation reproduces Figure 7 (flexibility by adaptation):
// the only KV provider fails; no same-interface alternate exists, but a
// legacy service over the same store with a DIFFERENT interface does.
// The coordinator generates an adaptor service around it and
// re-registers the interface. The check: clients keep operating on
// their data after a bounded reconfiguration window, served through
// the adaptor.
func ScenarioAdaptation(ctx context.Context, db *DB, opsPerPhase int) (ScenarioResult, error) {
	res := ScenarioResult{Name: "F7-adaptation"}
	if db.kvRef == nil {
		return res, fmt.Errorf("sbdms: adaptation scenario needs a service-based profile")
	}
	// A legacy storage service: the engine's store under an alien
	// interface (different op names and payload shapes).
	legacyContract := &core.Contract{
		Interface: "sbdms.legacy.Store",
		Operations: []core.OpSpec{
			{Name: "fetch", In: "string", Out: "[]byte", Semantic: "kv.get"},
			{Name: "store", In: "sbdms.legacyPut", Out: "bool", Semantic: "kv.put"},
			{Name: "storeMany", In: "sbdms.legacyBatch", Out: "bool", Semantic: "kv.putBatch"},
			{Name: "loadAll", In: "sbdms.legacyBatch", Out: "bool", Semantic: "kv.import"},
			{Name: "remove", In: "string", Out: "bool", Semantic: "kv.delete"},
			{Name: "list", In: "sbdms.legacyScan", Out: "[]string", Semantic: "kv.scan"},
			{Name: "peek", In: "string", Out: "[]byte", Semantic: "kv.getSnapshot"},
			{Name: "listStable", In: "sbdms.legacyScan", Out: "[]string", Semantic: "kv.scanSnapshot"},
			{Name: "size", In: "nil", Out: "uint64", Semantic: "kv.len"},
		},
		Description: core.Description{Summary: "legacy store with incompatible interface (Figure 7)"},
	}
	legacy := db.kv
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
	lsvc.Handle("peek", func(ctx context.Context, req any) (any, error) { return legacy.GetSnapshot(ctx, req.(string)) })
	lsvc.Handle("listStable", func(ctx context.Context, req any) (any, error) {
		p := req.(legacyScan)
		return legacy.ScanKeysSnapshot(ctx, p.From, p.N)
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

	d := newPhaseDriver(ctx, db, &res, opsPerPhase)
	d.run(&res.OpsBefore)

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

	d.run(&res.OpsDuring)
	if _, err := db.kvRef.Resolve(); err != nil {
		return res, err
	}
	res.ServedBy = db.kvRef.Current()
	d.run(&res.OpsAfter)
	d.readBack()
	res.Events = db.Kernel().Bus().CountByType()
	return res, nil
}
