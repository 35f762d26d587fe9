package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// runTraced produces every per-layer metric of one workload from three
// sources:
//
//	C  public counters read before and after a counted segment: one
//	   closed-loop client replays a fixed n ops of the stream on a fresh
//	   untraced store, so counts repeat exactly from run to run;
//	T  the same n ops replayed on a second fresh store opened with the span
//	   recorders in place (kernel hops, device calls, cluster transport);
//	P  the layer probes of probes.go.
//
// Workloads with two clients or an open loop also run their own client
// model for a short while, for the figures only that shape produces
// (conflicts, stale follower reads, generator lateness, checkpoint stalls).
func runTraced(ctx context.Context, sp *spec, cfg *config) (*runResult, error) {
	res := &runResult{Workload: sp.name, Seed: cfg.seed, Trace: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
	m := res.Metrics
	n := tracedOps(sp, cfg)
	streams := genStreams(sp, cfg.seed, streamLen(sp, cfg))

	// --- C: counted segment, untraced ---
	a, err := newSession(ctx, sp, cfg, false, nil)
	if err != nil {
		return nil, err
	}
	defer a.removeDir()
	// A fixed warm-up (the stream's first n/5 ops) precedes both segments,
	// so neither pays for first-touch costs the other does not.
	warm := n / 5
	warmup, counted := streams[0][:warm], streams[0][warm:warm+n]
	a.countedPhase(ctx, warmup, warm)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := a.b.counters()
	recA, elapsedA := a.countedPhase(ctx, counted, n)
	c1 := a.b.counters()
	runtime.ReadMemStats(&ms1)

	shape := recA
	if sp.clients > 1 || sp.openRate > 0 {
		rest := make([][]op, len(streams))
		for i := range rest {
			rest[i] = streams[i][warm+n:]
		}
		shape, _ = a.timedPhase(ctx, rest, seconds(0.2*cfg.seconds))
	}
	both := recA // checkpoint and vacuum figures draw on both segments
	if shape != recA {
		both = merge([]*recorder{recA, shape})
	}
	var handler []float64
	if cb, ok := a.b.(*clusterBed); ok {
		kw := a.w.(*kvWork)
		ds, err := cb.handlerProbe(ctx, kw.keys[:min(2000, len(kw.keys))])
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			handler = append(handler, float64(d)/1e3)
		}
	}
	dataEnd, logEnd, err := a.b.finish(ctx, func() error { return nil })
	if err != nil {
		return nil, err
	}
	a.removeDir()

	ops := float64(recA.attempted)
	writes := math.Max(float64(recA.writes), 1)
	pins := float64(c1.PoolHits - c0.PoolHits + c1.PoolMisses - c0.PoolMisses)
	m["buffer.pins_per_op"] = pins / ops
	m["buffer.hit_rate"] = float64(c1.PoolHits-c0.PoolHits) / math.Max(pins, 1)
	m["buffer.misses_per_op"] = float64(c1.PoolMisses-c0.PoolMisses) / ops
	m["buffer.evictions_per_op"] = float64(c1.PoolEvictions-c0.PoolEvictions) / ops
	m["buffer.flushes_per_op"] = float64(c1.PoolFlushes-c0.PoolFlushes) / ops
	m["wal.bytes_per_write"] = float64(c1.WALBytes-c0.WALBytes) / writes
	m["wal.syncs_per_write"] = float64(c1.WALSyncs-c0.WALSyncs) / writes
	m["wal.window_skips"] = float64(c1.WALSkips - c0.WALSkips)
	m["wal.rolls"] = float64(c1.WALRolls - c0.WALRolls)
	m["wal.segments_end"] = float64(c1.WALSegments)
	m["wal.dev_writes_per_write"] = float64(c1.Log.Writes-c0.Log.Writes) / writes
	m["wal.dev_write_us_per_write"] = float64(c1.Log.WriteNs-c0.Log.WriteNs) / 1e3 / writes
	m["wal.dev_sync_us_per_write"] = float64(c1.Log.SyncNs-c0.Log.SyncNs) / 1e3 / writes
	m["storage.reads_per_op"] = float64(c1.Data.Reads-c0.Data.Reads) / ops
	m["storage.read_us_per_op"] = float64(c1.Data.ReadNs-c0.Data.ReadNs) / 1e3 / ops
	m["storage.writes_per_op"] = float64(c1.Data.Writes-c0.Data.Writes) / ops
	m["storage.write_bytes_per_op"] = float64(c1.Data.WriteBytes-c0.Data.WriteBytes) / ops
	m["storage.write_us_per_op"] = float64(c1.Data.WriteNs-c0.Data.WriteNs) / 1e3 / ops
	m["storage.syncs_per_kop"] = float64(c1.Data.Syncs-c0.Data.Syncs) / ops * 1e3
	m["storage.sync_ms_total"] = float64(c1.Data.SyncNs-c0.Data.SyncNs) / 1e6
	m["storage.data_bytes_end"] = float64(dataEnd)
	m["storage.wal_bytes_end"] = float64(logEnd)
	m["proc.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	m["proc.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	m["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["proc.heap_peak_mb"] = float64(ms1.HeapSys) / 1e6
	m["kv.import_fallbacks"] = float64(c1.ImportFallbacks)
	if sp.kind != kindSQL {
		m["kv.import_keys_per_s"] = float64(sp.keys) / a.importDur.Seconds()
		m["kv.snap_p50_us"], m["kv.snap_p95_us"], res.Samples["snap"] = shape.classStats(clSnap, tailQ)
	}
	if sp.kind == kindCluster {
		expected := float64(recA.attempted) + float64(clusterShards-1)*float64(len(recA.lat[clScan][rounds-1]))
		m["cluster.replans_per_kop"] = (float64(c1.TransportCalls-c0.TransportCalls) - expected) / ops * 1e3
		m["cluster.ack_fallbacks"] = float64(c1.AckFallbacks)
		m["cluster.bootstraps"] = float64(c1.Bootstraps)
		m["replicate.catchup_ms"] = float64(a.catchup) / 1e6
		m["replicate.stale_read_frac"] = float64(shape.stale) / math.Max(float64(shape.snaps), 1)
		m["bench.late_frac"] = float64(shape.late) / math.Max(float64(shape.sent), 1)
	}
	m["kv.conflict_frac"] = float64(shape.conflicts) / float64(shape.attempted)
	for _, cl := range []class{clRead, clScan, clWrite} {
		_, m["client."+classNames[cl]+"_p95_us"], _ = shape.classStats(cl, tailQ)
	}
	m["sql.update_p50_us"], m["sql.update_p95_us"], _ = recA.classStats(clUpdate, 0.95)
	m["wal.synced_write_p50_us"], m["wal.synced_write_p95_us"], _ = recA.classStats(clWrite, tailQ)
	m["txn.checkpoints"] = float64(len(both.ckptMs))
	m["txn.checkpoint_ms_p50"] = median(both.ckptMs)
	for _, v := range both.ckptMs {
		m["txn.checkpoint_ms_max"] = math.Max(m["txn.checkpoint_ms_max"], v)
	}
	m["txn.ckpt_stall_write_p99_us"] = pctl(sortedCopy(both.stall), 0.99) / 1e3
	m["vacuum.runs"] = float64(len(both.vacMs))
	m["vacuum.run_ms_p50"] = median(both.vacMs)
	if runs := float64(len(both.vacMs)); runs > 0 {
		m["vacuum.versions_reclaimed_per_run"] = float64(both.vacReclaimed) / runs
		m["vacuum.skipped_busy_per_run"] = float64(both.vacSkipped) / runs
	}

	// --- T: the same ops on a store that records spans ---
	tr := newTracer()
	if sp.kind != kindCluster {
		// Only device spans need the client's thread identity, and the
		// cluster's stores are in memory; a locked thread would slow every
		// network wait of the routed ops.
		tr.bindClient()
		defer tr.unbindClient()
	}
	b, err := newSession(ctx, sp, cfg, false, tr)
	if err != nil {
		return nil, err
	}
	defer b.removeDir()
	b.countedPhase(ctx, warmup, warm)
	tr.reset()
	recB, elapsedB := b.countedPhase(clientContext(ctx), counted, n)
	if err := b.discard(ctx); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeJSONL(filepath.Join(cfg.out, "trace_"+sp.name+".jsonl")); err != nil {
		return nil, err
	}
	m["bench.trace_overhead_frac"] = 1 - elapsedA.Seconds()/elapsedB.Seconds()
	spanMetrics(sp, tr, handler, m)

	// --- P: layer probes ---
	if err := runProbes(ctx, cfg, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // the layer is not on this workload's path
		}
	}
	res.Attempted = recA.attempted + recB.attempted
	res.Failed = recA.failed + recB.failed
	if shape != recA {
		res.Attempted += shape.attempted
		res.Failed += shape.failed
	}
	return res, nil
}

// spanMetrics turns the traced pass's span trees into self times. A layer's
// self time is its span minus the spans nested directly inside it:
//
//	op                      request as the client sees it
//	  core.hop (kv)         outer kernel hop     -> core.dispatch_self = op - outer
//	    core.hop (record)   inner kernel hop     -> core.hop_self = outer - inner
//	      storage.* wal.*   device calls         -> kv.native = inner - devices
//	  cluster.transport     router -> node call  -> cluster.router_self = op - transports
func spanMetrics(sp *spec, tr *tracer, handlerUs []float64, m map[string]float64) {
	bds := tr.breakdowns()
	var hops int
	var dispatch, hopSelf, routerSelf, transportRead []float64
	native := map[string][]float64{}
	var worstErr float64
	for _, b := range bds {
		hops += len(b.hops)
		if b.total > 0 {
			worstErr = math.Max(worstErr, math.Abs(float64(b.selfSum-b.total))/float64(b.total))
		}
		if len(b.hops) > 0 {
			dispatch = append(dispatch, float64(b.total-b.hops[0])/1e3)
			native[b.class] = append(native[b.class], float64(b.hops[len(b.hops)-1]-b.device)/1e3)
		}
		if len(b.hops) > 1 {
			hopSelf = append(hopSelf, float64(b.hops[0]-b.hops[1])/1e3)
		}
		if b.ntransp > 0 {
			routerSelf = append(routerSelf, float64(b.total-b.transport)/1e3)
			if b.class == classNames[clRead] {
				transportRead = append(transportRead, float64(b.transport)/1e3)
			}
		}
	}
	if len(bds) > 0 {
		m["core.hops_per_op"] = float64(hops) / float64(len(bds))
	}
	m["core.dispatch_self_us"] = median(dispatch)
	m["core.hop_self_us"] = median(hopSelf)
	m["bench.self_time_err_frac"] = worstErr
	layer := "kv"
	if sp.kind == kindSQL {
		layer = "sql"
	}
	for _, cl := range []class{clRead, clSnap, clScan, clWrite} {
		if v := native[classNames[cl]]; len(v) > 0 {
			m[layer+".native_"+classNames[cl]+"_us"] = median(v)
		}
	}
	if sp.kind == kindCluster {
		m["cluster.router_self_us"] = median(routerSelf)
		m["netbind.self_us"] = median(transportRead) - median(handlerUs)
	}
}
