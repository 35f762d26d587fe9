package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is what the command line fixes for a run.
type config struct {
	seed    int64
	seconds float64
	dir     string // fresh store directories are made here
	out     string // trace files go here
	quick   bool   // smoke-test sizes
	verbose bool   // print every round's and every kill cycle's figures
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"` // per op class, behind the latency metrics
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
}

const (
	rounds     = 8    // a timed phase is cut into this many equal rounds
	minSamples = 20   // a round needs this many samples of a class to report it
	tailQ      = 0.95 // the tail quantile: -v and the per-layer run report it, no bound can hold it
	stallAfter = 50 * time.Millisecond
	lateAfter  = time.Millisecond
)

// --- recording --------------------------------------------------------------

// recorder holds one client's samples of one phase. Latencies are kept per
// class and per round so that every reported figure is that of the
// quietest round (see quietest): disturbed rounds do not move it.
type recorder struct {
	start    time.Time
	roundDur time.Duration // 0: a counted phase, everything lands in round hi
	lo, hi   int           // the rounds this phase covers; samples past the end land in hi
	lat      [nClasses][rounds][]int64
	done     [rounds]int64

	attempted, failed, conflicts int64
	snaps, stale, sent, late     int64
	writes, userBytes            int64
	ckptMs, vacMs                []float64
	vacReclaimed, vacSkipped     int
	stall                        []int64 // latencies of writes begun within stallAfter of a Checkpoint call
}

func (r *recorder) add(cl class, end time.Time, lat time.Duration, oc outcome) {
	round := r.hi
	if r.roundDur > 0 {
		if i := r.lo + int(end.Sub(r.start)/r.roundDur); i < round {
			round = i
		}
	}
	r.lat[cl][round] = append(r.lat[cl][round], int64(lat))
	r.done[round]++
	r.attempted++
	switch {
	case oc.failed:
		r.failed++
		if oc.conflict {
			r.conflicts++
		}
	case cl == clWrite || cl == clUpdate:
		r.writes++
		r.userBytes += int64(oc.bytes)
	}
	if cl == clSnap {
		r.snaps++
		if oc.stale {
			r.stale++
		}
	}
}

func merge(recs []*recorder) *recorder {
	m := &recorder{start: recs[0].start, roundDur: recs[0].roundDur, hi: rounds - 1}
	for _, r := range recs {
		for cl := range r.lat {
			for i := range r.lat[cl] {
				m.lat[cl][i] = append(m.lat[cl][i], r.lat[cl][i]...)
			}
		}
		for i := range r.done {
			m.done[i] += r.done[i]
		}
		m.attempted += r.attempted
		m.failed += r.failed
		m.conflicts += r.conflicts
		m.snaps += r.snaps
		m.stale += r.stale
		m.sent += r.sent
		m.late += r.late
		m.writes += r.writes
		m.userBytes += r.userBytes
		m.ckptMs = append(m.ckptMs, r.ckptMs...)
		m.vacMs = append(m.vacMs, r.vacMs...)
		m.vacReclaimed += r.vacReclaimed
		m.vacSkipped += r.vacSkipped
		m.stall = append(m.stall, r.stall...)
	}
	return m
}

func pctl(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1)+0.5)])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile interpolates the q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Every timing of a run goes through one of two estimators, because
// interference on a shared host only ever adds time. On this one it comes in
// episodes of seconds to minutes in which CPU-bound ops are a third slower
// and routed ones up to three times; a run that overlaps an episode still
// has quiet stretches, and those read like an undisturbed run.
//
// quietest, the minimum, is for figures that are precise by themselves: a
// round's p50 or p95 rests on hundreds to thousands of samples, so the
// least of eight rounds is the undisturbed value and not a lucky one. Over
// three ten-run sets its mean interquartile spread was 0.15, 0.08 and 0.17
// where the lower quartile's was 0.29, 0.09 and 0.18 and the median's 0.38,
// 0.10 and 0.20 (the first set made while a neighbour held the host).
//
// quiet, the lower quartile, is for single timings (a set-up, a recovery)
// and the thin statistics of a kill cycle (a p95 with 25 samples beyond
// it), whose minimum would be the luckiest value.
func quietest(v []float64) float64 { return quantile(v, 0) }
func quiet(v []float64) float64    { return quantile(v, 0.25) }

// latStats returns, in microseconds, est over rounds of each round's median
// and of each round's p-quantile, and the sample count. If no round has
// minSamples samples the rounds are pooled.
func latStats(perRound [][]int64, p float64, est func([]float64) float64) (p50, pHigh float64, n int) {
	var p50s, pHighs []float64
	var pool []int64
	for _, s := range perRound {
		n += len(s)
		pool = append(pool, s...)
		if len(s) < minSamples {
			continue
		}
		s = sortedCopy(s)
		p50s = append(p50s, pctl(s, 0.5))
		pHighs = append(pHighs, pctl(s, p))
	}
	if len(p50s) == 0 {
		pool = sortedCopy(pool)
		return pctl(pool, 0.5) / 1e3, pctl(pool, p) / 1e3, n
	}
	return est(p50s) / 1e3, est(pHighs) / 1e3, n
}

// describe formats one round's samples of one class for -v.
func describe(name string, samples []int64) string {
	if len(samples) == 0 {
		return ""
	}
	s := sortedCopy(samples)
	return fmt.Sprintf("  %s p50=%.1f p95=%.1f us", name, pctl(s, 0.5)/1e3, pctl(s, tailQ)/1e3)
}

func (r *recorder) classStats(cl class, p float64) (p50, pHigh float64, n int) {
	return latStats(r.lat[cl][:], p, quietest)
}

// opsPerSec is the rate of the quietest round (here the fast side is the
// upper one). An open loop completes its
// fixed schedule in every round, so there the achieved rate is taken over
// the whole phase, up to the last completion.
func (r *recorder) opsPerSec(elapsed time.Duration, open bool) float64 {
	if open {
		return float64(r.attempted) / elapsed.Seconds()
	}
	rates := make([]float64, rounds)
	for i, d := range r.done {
		rates[i] = float64(d) / r.roundDur.Seconds()
	}
	return quantile(rates, 1)
}

// --- one store and its model ------------------------------------------------

// session is a freshly set-up store, the model that checks it and the
// time the set-up took.
type session struct {
	sp  *spec
	b   bed
	w   work
	dir string

	setup, importDur, catchup time.Duration
	lastCkpt                  atomic.Int64 // UnixNano of the latest Checkpoint call; 0 = none yet
}

// newSession performs one set-up: open + load + durable checkpoint, and on
// the cluster the wait until every follower serves the load. With freeSync
// the local store's device flushes are counted, not executed (see gate).
func newSession(ctx context.Context, sp *spec, cfg *config, freeSync bool, tr *tracer) (*session, error) {
	s := &session{sp: sp}
	var kw *kvWork
	if sp.kind == kindSQL {
		s.w = newSQLWork(sp, tr)
	} else {
		kw = newKVWork(sp, tr)
		s.w = kw
	}
	var err error
	t0 := time.Now()
	if sp.kind == kindCluster {
		s.b, err = openCluster(sp.frames, tr)
	} else {
		if s.dir, err = os.MkdirTemp(cfg.dir, sp.name+"-"); err != nil {
			return nil, err
		}
		s.b, err = openLocal(s.dir, sp.frames, freeSync, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", sp.name, err)
	}
	if s.importDur, err = s.w.load(ctx, s.b); err != nil {
		return nil, fmt.Errorf("%s: load: %w", sp.name, err)
	}
	if sp.kind == kindCluster {
		// A follower serves nothing until it has applied the import, so the
		// wait is part of set-up. The last 64 keys hash onto every shard.
		t1 := time.Now()
		ids := make([]uint32, 64)
		for i := range ids {
			ids[i] = uint32(sp.keys - 1 - i)
		}
		if err := kw.awaitFollowers(ctx, s.b, ids); err != nil {
			return nil, err
		}
		s.catchup = time.Since(t1)
	} else if err := s.b.checkpointSync(); err != nil {
		return nil, fmt.Errorf("%s: checkpoint after load: %w", sp.name, err)
	}
	s.setup = time.Since(t0)
	return s, nil
}

func (s *session) removeDir() {
	if s != nil && s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *session) discard(ctx context.Context) error {
	err := s.b.close(ctx)
	s.removeDir()
	return err
}

// --- driving load -----------------------------------------------------------

// waitUntil spins until t. This host's timers fire about a millisecond
// late, forty times a routed read, so an open-loop generator cannot sleep
// between sends; it busy-waits on one core (and therefore there is only one
// generator: a second would take the core the cluster's nodes run on).
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 3*time.Millisecond {
		time.Sleep(d - 3*time.Millisecond)
	}
	for time.Now().Before(t) {
	}
}

// client replays stream against the session's store until the deadline
// passes (timed phases) or maxOps ops are done (counted phases). In an
// open loop op i is due at start + i/rate and timed from then.
func (s *session) client(ctx context.Context, id, nclients int, stream []op, rec *recorder, deadline time.Time, maxOps int, open bool) {
	var interval time.Duration
	if open {
		interval = time.Second / time.Duration(s.sp.openRate)
	}
	for i := 0; maxOps == 0 || i < maxOps; i++ {
		if i >= len(stream) && s.sp.kind == kindSQL {
			break // SQL row ids follow stream order, so the stream cannot wrap
		}
		o := stream[i%len(stream)]
		var due time.Time
		if open {
			due = rec.start.Add(time.Duration(i) * interval)
			if maxOps == 0 && due.After(deadline) {
				break
			}
			waitUntil(due)
		}
		start, end, oc := s.w.do(ctx, s.b, o)
		lat := end.Sub(start)
		if open {
			lat = end.Sub(due)
			rec.sent++
			if start.Sub(due) > lateAfter {
				rec.late++
			}
		}
		rec.add(o.cl, end, lat, oc)
		if o.cl == clWrite {
			if at := s.lastCkpt.Load(); at != 0 && start.UnixNano()-at <= int64(stallAfter) {
				rec.stall = append(rec.stall, int64(lat))
			}
		}
		n := i + 1
		if s.sp.ckptEvery > 0 && id == 0 && n%s.sp.ckptEvery == 0 {
			t0 := time.Now()
			s.lastCkpt.Store(t0.UnixNano())
			if err := s.b.checkpoint(); err != nil {
				rec.failed++
			}
			rec.ckptMs = append(rec.ckptMs, float64(time.Since(t0))/1e6)
		}
		if s.sp.vacEvery > 0 && id == nclients-1 && n%s.sp.vacEvery == 0 {
			t0 := time.Now()
			reclaimed, skipped, err := s.b.vacuum()
			if err != nil {
				rec.failed++
			}
			rec.vacMs = append(rec.vacMs, float64(time.Since(t0))/1e6)
			rec.vacReclaimed += reclaimed
			rec.vacSkipped += skipped
		}
		if !open && maxOps == 0 && end.After(deadline) {
			break
		}
	}
}

// timedPhase runs the workload's own client model for dur, cut into rounds,
// all on this store.
func (s *session) timedPhase(ctx context.Context, streams [][]op, dur time.Duration) (*recorder, time.Duration) {
	return s.timedRounds(ctx, streams, dur/rounds, 0, rounds-1)
}

// timedRounds runs the workload's own client model over rounds lo..hi,
// roundDur each, from the start of the streams.
func (s *session) timedRounds(ctx context.Context, streams [][]op, roundDur time.Duration, lo, hi int) (*recorder, time.Duration) {
	start := time.Now()
	deadline := start.Add(time.Duration(hi-lo+1) * roundDur)
	recs := make([]*recorder, s.sp.clients)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = &recorder{start: start, roundDur: roundDur, lo: lo, hi: hi}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.client(ctx, c, s.sp.clients, streams[c], recs[c], deadline, 0, s.sp.openRate > 0)
		}(c)
	}
	wg.Wait()
	return merge(recs), time.Since(start)
}

// countedPhase runs one closed-loop client over the first n ops of client
// 0's stream, on the calling goroutine.
func (s *session) countedPhase(ctx context.Context, stream []op, n int) (*recorder, time.Duration) {
	rec := &recorder{start: time.Now(), hi: rounds - 1}
	s.client(ctx, 0, 1, stream, rec, time.Time{}, n, false)
	return rec, time.Since(rec.start)
}

// --- the untraced run: every end-to-end metric ------------------------------

func streamLen(sp *spec, cfg *config) int {
	n := int(float64(sp.rateHint) * cfg.seconds * 3)
	if sp.openRate > 0 {
		n = int(float64(sp.openRate)*cfg.seconds) + 1
	}
	return n + 2*tracedOps(sp, cfg) // room for the traced run's warm-up and counted ops
}

func tracedOps(sp *spec, cfg *config) int {
	return int(float64(sp.tracedOps) * cfg.seconds / 20)
}

// tally is the write volume of one phase: what the engine logged and
// flushed for the user bytes it acknowledged.
type tally struct {
	walBytes, syncs   uint64
	userBytes, writes int64
}

func (t *tally) addCounters(before, after counters) {
	t.walBytes += after.WALBytes - before.WALBytes
	t.syncs += after.syncs() - before.syncs()
}

// killCycle is one kill and recovery: durable checkpoint, the spec's number
// of acknowledged writes, kill, timed recovery, then every one of those
// writes is read back. It returns the writes' latencies and one duration
// per recovery performed.
func (s *session) killCycle(ctx context.Context, rng *rand.Rand, res *runResult, t *tally) ([]int64, []time.Duration, error) {
	if err := s.b.checkpointSync(); err != nil {
		return nil, nil, err
	}
	before := s.b.counters()
	var lat []int64
	written := make([]op, 0, s.sp.crashOps)
	for i := 0; i < s.sp.crashOps; i++ {
		o := s.w.crashOp(rng)
		start, end, oc := s.w.do(ctx, s.b, o)
		res.Attempted++
		if oc.failed {
			res.Failed++
			continue
		}
		lat = append(lat, int64(end.Sub(start)))
		t.userBytes += int64(oc.bytes)
		t.writes++
		written = append(written, o)
	}
	t.addCounters(before, s.b.counters())
	if kw, ok := s.w.(*kvWork); ok && s.sp.kind == kindCluster {
		// Acks are local-fsync acks: a write no follower holds yet would be
		// lost by design, so the kill waits for shipping to drain.
		ids := make([]uint32, len(written))
		for i, o := range written {
			ids[i] = o.k
		}
		if err := kw.awaitFollowers(ctx, s.b, ids); err != nil {
			return nil, nil, err
		}
	}
	recoveries, err := s.b.crash(ctx)
	if err != nil {
		return nil, nil, err
	}
	for _, o := range written {
		res.Attempted++
		if !s.w.verify(ctx, s.b, o) {
			res.Failed++
		}
	}
	return lat, recoveries, nil
}

// roll writes until the log rolls to a fresh segment. Retained log is a
// sawtooth: the active segment (4 MiB, more than the hot stores' data)
// cannot be truncated, so every run measures space at the same point of the
// cycle, right after a roll and a checkpoint.
func (s *session) roll(ctx context.Context, rng *rand.Rand, res *runResult) error {
	start := s.b.counters().WALRolls
	for i := 0; s.b.counters().WALRolls == start; i++ {
		if i == 1<<16 {
			return fmt.Errorf("%s: the log never rolled", s.sp.name)
		}
		_, _, oc := s.w.do(ctx, s.b, s.w.crashOp(rng))
		res.Attempted++
		if oc.failed {
			res.Failed++
		}
	}
	return nil
}

// use says what one of a run's stores is for, after its timed set-up.
type use struct {
	first, n int  // rounds first..first+n-1 of the main phase run on it
	kills    int  // kill and recovery cycles
	space    bool // final housekeeping, then space_amp is measured on it
}

// plan lists the stores of one untraced run. Every store's set-up is
// timed. By default the last store carries the whole main phase and then
// the kill cycles, and the ones before it are only set up. Kills always come
// after the last round of the main phase: a killed store's goroutines and
// buffers stay behind in the process and slow what follows.
func plan(sp *spec, quick bool) []use {
	stores, cycles := 5, 10
	if quick {
		stores, cycles = 2, 1
	}
	switch sp.kind {
	case kindSQL:
		// The table grows by a fifth of the ops, and UPDATE (a table scan)
		// and the aggregate slow down with it: on one store round 7 completed
		// 0.4 of round 0's ops, and an estimator over rounds only ever read
		// the first two. So every round gets a table of its own and replays the
		// stream from its start: all rounds then measure the same thing.
		p := make([]use, rounds)
		for i := range p {
			p[i] = use{first: i, n: 1}
		}
		p[rounds-1].kills, p[rounds-1].space = cycles, true
		return p
	case kindCluster:
		// A cluster can fail over once, so each kill gets a freshly loaded
		// cluster of its own, after the one that carried the main phase.
		p := []use{{n: rounds, space: true}}
		for len(p) < stores {
			p = append(p, use{kills: 1})
		}
		return p
	}
	p := make([]use, stores)
	p[stores-1] = use{n: rounds, kills: cycles, space: true}
	return p
}

// runUntraced produces every end-to-end metric of one workload.
func runUntraced(ctx context.Context, sp *spec, cfg *config) (*runResult, error) {
	res := &runResult{Workload: sp.name, Seed: cfg.seed, Metrics: map[string]float64{}, Samples: map[string]int{}}
	streams := genStreams(sp, cfg.seed, streamLen(sp, cfg))
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5bd1e995))
	roundDur := seconds(cfg.seconds) / rounds

	var (
		setups, recoveries []float64
		recs               []*recorder
		elapsed            time.Duration
		crashLat           [][]int64
		mainT, crashT      tally
	)
	var s *session // one at a time: a store left reachable slows the ones after it
	defer func() { s.removeDir() }()
	for _, u := range plan(sp, cfg.quick) {
		var err error
		if s, err = newSession(ctx, sp, cfg, true, nil); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if u.n > 0 {
			before := s.b.counters()
			rec, d := s.timedRounds(ctx, streams, roundDur, u.first, u.first+u.n-1)
			mainT.addCounters(before, s.b.counters())
			recs = append(recs, rec)
			elapsed += d
		}
		for c := 0; c < u.kills; c++ {
			lat, ds, err := s.killCycle(ctx, rng, res, &crashT)
			if err != nil {
				return nil, err
			}
			crashLat = append(crashLat, lat)
			for _, d := range ds {
				recoveries = append(recoveries, d.Seconds())
			}
		}
		if !u.space {
			if err := s.discard(ctx); err != nil {
				return nil, err
			}
			continue
		}
		data, logBytes, err := s.b.finish(ctx, func() error { return s.roll(ctx, rng, res) })
		if err != nil {
			return nil, err
		}
		res.Metrics["space_amp"] = float64(data+logBytes) / float64(s.w.liveBytes())
		s.removeDir()
	}
	rec := merge(recs)
	mainT.userBytes, mainT.writes = rec.userBytes, rec.writes
	res.Attempted += rec.attempted
	res.Failed += rec.failed
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "set-ups: %.4f s\n", setups)
		for i := 0; i < rounds; i++ {
			line := fmt.Sprintf("round %d: %6d ops", i, rec.done[i])
			for cl := range rec.lat {
				line += describe(classNames[cl], rec.lat[cl][i])
			}
			fmt.Fprintln(os.Stderr, line)
		}
		for c, l := range crashLat {
			fmt.Fprintf(os.Stderr, "kill cycle %d:%s\n", c, describe("write", l))
		}
	}

	res.Metrics["setup_s"] = quiet(setups)
	res.Metrics["ops_per_s"] = rec.opsPerSec(elapsed, sp.openRate > 0)
	for _, cl := range []class{clRead, clScan, clWrite} {
		if sp.mix[cl] == 0 {
			continue
		}
		res.Metrics[classNames[cl]+"_p50_us"], _, res.Samples[classNames[cl]] = rec.classStats(cl, tailQ)
	}
	res.Metrics["recovery_s"] = quiet(recoveries)
	t := mainT
	if sp.mix[clWrite] == 0 {
		// No writes in the mix: the write metrics are those of the writes
		// that preceded each kill.
		res.Metrics["write_p50_us"], _, res.Samples["write"] = latStats(crashLat, tailQ, quiet)
		t = crashT
	}
	res.Metrics["write_amp"] = float64(t.walBytes) / float64(t.userBytes)
	res.Metrics["syncs_per_write"] = float64(t.syncs) / float64(t.writes)
	return res, nil
}

// checkMetrics verifies that a run produced exactly the listed metrics,
// all finite.
func checkMetrics(res *runResult, defs []metricDef) error {
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s missing or not finite (%v)", res.Workload, d.name, v)
		}
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics reported, %d defined", res.Workload, len(res.Metrics), len(defs))
	}
	return nil
}
