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
}

// String renders the measurement as a result-table row.
func (m KVMeasurement) String() string {
	return fmt.Sprintf("%-11s %-8s ops=%-8d thr=%10.0f op/s  p50=%-10v p99=%-10v fail=%d",
		m.Granularity, m.Binding, m.Ops, m.OpsPerSec, m.P50, m.P99, m.Failures)
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

// MeasureTCPRoundTrip measures the real cost of one service invocation
// over the TCP binding on loopback: an echo service is served via
// netbind and invoked n times. The granularity sweep uses this measured
// value as the per-hop delay of its "tcp" rows (a full multi-process
// decomposition is demonstrated separately in examples/distributed).
func MeasureTCPRoundTrip(n int) (time.Duration, error) {
	reg := core.NewRegistry(nil)
	svc := core.NewService("echo", &core.Contract{
		Interface:  "bench.Echo",
		Operations: []core.OpSpec{{Name: "echo", In: "string", Out: "string"}},
	})
	svc.Handle("echo", func(ctx context.Context, req any) (any, error) { return req, nil })
	if err := svc.Start(context.Background()); err != nil {
		return 0, err
	}
	if err := reg.RegisterService(svc, nil); err != nil {
		return 0, err
	}
	srv, err := netbind.Serve(reg, "")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	client := netbind.NewClient(srv.Addr())
	defer client.Close()
	ctx := context.Background()
	// Warm the connection.
	if _, err := client.Call(ctx, "echo", "echo", "warm"); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := client.Call(ctx, "echo", "echo", "x"); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// SweepStorage carries the storage-concurrency knobs of a granularity
// sweep, so experiment G1 can ablate storage configuration (buffer
// sharding, WAL group commit) against service granularity instead of
// holding storage fixed.
type SweepStorage struct {
	// BufferFrames sizes the pool (0 = 512, the classic G1 setting).
	BufferFrames int
	// BufferShards overrides the pool's lock-stripe count (0 = auto).
	BufferShards int
	// WALGroupWindow, WALGroupBytes, WALCommitSiblings,
	// WALSegmentBytes and CheckpointInterval mirror the same fields of
	// Options.
	WALGroupWindow     time.Duration
	WALGroupBytes      int
	WALCommitSiblings  int
	WALSegmentBytes    int
	CheckpointInterval time.Duration
}

// GranularitySweepStorage runs experiment G1: every granularity profile
// under the local binding and under a per-hop delay calibrated from the
// real TCP round-trip, one measurement per cell. The storage knobs cross
// the paper's granularity axis with the storage concurrency axis; the
// zero SweepStorage is the classic sweep (512 frames, in-memory log).
func GranularitySweepStorage(mix workload.Mix, keys, nops int, seed int64, st SweepStorage) ([]KVMeasurement, error) {
	rtt, err := MeasureTCPRoundTrip(200)
	if err != nil {
		return nil, err
	}
	frames := st.BufferFrames
	if frames <= 0 {
		frames = 512
	}
	var out []KVMeasurement
	for _, binding := range []struct {
		name string
		bind core.Binding
	}{
		{"local", nil},
		{fmt.Sprintf("tcp(%v)", rtt.Round(time.Microsecond)), core.DelayBinding{Delay: rtt}},
	} {
		for _, g := range Granularities {
			db, err := Open(Options{
				Granularity:        g,
				BufferFrames:       frames,
				BufferShards:       st.BufferShards,
				Binding:            binding.bind,
				WALGroupWindow:     st.WALGroupWindow,
				WALGroupBytes:      st.WALGroupBytes,
				WALCommitSiblings:  st.WALCommitSiblings,
				WALSegmentBytes:    st.WALSegmentBytes,
				CheckpointInterval: st.CheckpointInterval,
			})
			if err != nil {
				return nil, err
			}
			if err := Preload(db, keys, 100); err != nil {
				return nil, err
			}
			gen := workload.NewKV(workload.KVConfig{Seed: seed, Keys: keys, Mix: mix, Zipfian: true})
			m := MeasureKV(db, gen, nops)
			m.Binding = binding.name
			out = append(out, m)
			if err := db.Close(context.Background()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
