package sbdms

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netbind"
	"repro/internal/workload"
)

// KVMeasurement is one cell of the granularity study (experiment G1):
// throughput and tail latency of a KV workload at one (granularity,
// binding) configuration.
type KVMeasurement struct {
	Granularity Granularity
	Binding     string
	Ops         int
	Elapsed     time.Duration
	OpsPerSec   float64
	P50, P99    time.Duration
	Failures    int
	// HopsPerOp is the number of binding calls made during the
	// measured ops divided by their count (0 without a binding).
	HopsPerOp float64 `json:"hopsPerOp"`
}

// String renders the measurement as a result-table row.
func (m KVMeasurement) String() string {
	return fmt.Sprintf("%-11s %-8s ops=%-8d thr=%10.0f op/s  p50=%-10v p99=%-10v hops/op=%.3f fail=%d",
		m.Granularity, m.Binding, m.Ops, m.OpsPerSec, m.P50, m.P99, m.HopsPerOp, m.Failures)
}

// MeasureKV drives a generated KV workload through the DB's configured
// service path and reports throughput and latency percentiles.
func MeasureKV(db *DB, gen *workload.KVGen, nops int) KVMeasurement {
	ctx := context.Background()
	m := KVMeasurement{Granularity: db.Granularity(), Binding: "local", Ops: nops}
	if db.opts.Binding != nil {
		m.Binding = db.opts.Binding.Protocol()
	}
	lat := make([]time.Duration, 0, nops)
	start := time.Now()
	for i := 0; i < nops; i++ {
		op := gen.Next()
		t0 := time.Now()
		var err error
		switch op.Kind {
		case workload.OpRead:
			// Reads of never-written keys are expected misses, not
			// failures, in a fresh store.
			if _, err = db.Get(ctx, op.Key); IsKeyNotFound(err) {
				err = nil
			}
		case workload.OpWrite:
			err = db.Put(ctx, op.Key, op.Val)
		case workload.OpScan:
			_, err = db.ScanKeys(ctx, op.Key, op.ScanLen)
		}
		lat = append(lat, time.Since(t0))
		if err != nil {
			m.Failures++
		}
	}
	m.Elapsed = time.Since(start)
	m.OpsPerSec = float64(nops) / m.Elapsed.Seconds()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		m.P50 = lat[len(lat)/2]
		m.P99 = lat[len(lat)*99/100]
	}
	return m
}

// Preload inserts the full key space so that read-mostly mixes hit.
func Preload(db *DB, keys, valSize int) error {
	val := make([]byte, valSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < keys; i++ {
		if err := db.Put(context.Background(), workload.Key(i), val); err != nil {
			return err
		}
	}
	return nil
}

// MeasureTCPRoundTrip measures the echo round trip of one call over
// the TCP binding on loopback, averaged over n calls to an echo invoker
// bound through netbind. The granularity sweep reports it beside its
// wire column as the floor of one hop.
func MeasureTCPRoundTrip(n int) (time.Duration, error) {
	wire := &netbind.Binding{}
	defer wire.Close()
	echo := wire.Bind(core.InvokerFunc(func(_ context.Context, _ string, req any) (any, error) { return req, nil }))
	ctx := context.Background()
	// Warm the connection.
	if _, err := echo.Invoke(ctx, "echo", "warm"); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := echo.Invoke(ctx, "echo", "x"); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// GranularitySweep runs experiment G1: every granularity profile in
// process and with every service behind its own loopback netbind hop,
// one measurement per cell. It also returns the echo round trip of one
// bare netbind call.
func GranularitySweep(mix workload.Mix, keys, nops int, seed int64) ([]KVMeasurement, time.Duration, error) {
	rtt, err := MeasureTCPRoundTrip(200)
	if err != nil {
		return nil, 0, err
	}
	var out []KVMeasurement
	for _, wire := range []bool{false, true} {
		for _, g := range Granularities {
			m, err := MeasureProfile(g, wire, mix, keys, nops, seed)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, m)
		}
	}
	return out, rtt, nil
}

// MeasureProfile measures one granularity profile on a KV mix (one
// cell of F1 and G1): a fresh DB over a 512-frame pool and an in-memory
// log, preloaded with keys outside the measured phase, in process or,
// with wire, with every service behind its own loopback netbind hop.
func MeasureProfile(g Granularity, wire bool, mix workload.Mix, keys, nops int, seed int64) (KVMeasurement, error) {
	// No periodic health probes: a probe is a binding call too, and
	// its count would follow wall time rather than the workload.
	opts := Options{Granularity: g, BufferFrames: 512, Coordinator: core.DefaultCoordinatorConfig()}
	opts.Coordinator.ProbePeriod = 0
	b := &netbind.Binding{}
	defer b.Close() // after db.Close: the DB's last calls cross the wire
	if wire {
		opts.Binding = b
	}
	db, err := Open(opts)
	if err != nil {
		return KVMeasurement{}, err
	}
	if err := Preload(db, keys, 100); err != nil {
		_ = db.Close(context.Background())
		return KVMeasurement{}, err
	}
	gen := workload.NewKV(workload.KVConfig{Seed: seed, Keys: keys, Mix: mix, Zipfian: true})
	before := b.Calls()
	m := MeasureKV(db, gen, nops)
	m.HopsPerOp = float64(b.Calls()-before) / float64(nops)
	return m, db.Close(context.Background())
}

// ProximityRegistry builds experiment G3's registry: one "g3.Store"
// service registered twice, as "b-near-store" in process (tag
// node=near) and as "a-far-store" reached through b (tag node=far).
// Without a selector a Ref resolves to the far one, which sorts first.
func ProximityRegistry(ctx context.Context, b core.Binding) (*core.Registry, error) {
	s := core.NewService("store", &core.Contract{
		Interface:  "g3.Store",
		Operations: []core.OpSpec{{Name: "get", In: "string", Out: "string"}},
	})
	s.Handle("get", func(context.Context, any) (any, error) { return "v", nil })
	if err := s.Start(ctx); err != nil {
		return nil, err
	}
	reg := core.NewRegistry(nil)
	for _, r := range []*core.Registration{
		{Name: "a-far-store", Invoker: b.Bind(s), Tags: map[string]string{"node": "far"}},
		{Name: "b-near-store", Invoker: s, Tags: map[string]string{"node": "near"}},
	} {
		r.Interface, r.Contract = s.Contract().Interface, s.Contract()
		if err := reg.Register(r); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
