package main

// engine.go is the benchmark's only door to the engine's request
// surface: every call into package sbdms and internal/cluster is here, so
// an API change in the engine breaks this file and no other. (probes.go
// holds the layer probes, which by nature call single internal layers.)
//
// Ground rules kept here: stores are file-backed, Granularity stays at its
// default (Layered, two kernel hops per KV op), the WAL syncs on every
// commit, no background timers run, and every Options field other than
// Device, LogDir, BufferFrames and (traced pass only) Binding is zero.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	sbdms "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// kvAPI is the ctx-first key-value surface; *sbdms.KVClient (local store)
// and *cluster.Router (remote store) both provide it as is.
type kvAPI interface {
	Get(ctx context.Context, key string) ([]byte, error)
	GetSnapshot(ctx context.Context, key string) ([]byte, error)
	ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error)
	Put(ctx context.Context, key string, val []byte) error
	Import(ctx context.Context, keys []string, vals [][]byte) error
}

// cell is one SQL result value (integer or text).
type cell struct {
	i int64
	s string
}

// ioCounts are one device family's counters, kept by the pass-through
// wrappers below. They survive a simulated kill and reopen.
type ioCounts struct {
	reads, readNs, writes, writeBytes, writeNs, syncs, syncNs atomic.Int64
}

type ioSnapshot struct {
	Reads, ReadNs, Writes, WriteBytes, WriteNs, Syncs, SyncNs int64
}

func (c *ioCounts) snapshot() ioSnapshot {
	return ioSnapshot{c.reads.Load(), c.readNs.Load(), c.writes.Load(), c.writeBytes.Load(),
		c.writeNs.Load(), c.syncs.Load(), c.syncNs.Load()}
}

// counters is everything the engine exposes publicly about the work its
// layers did; per-layer metrics are differences of two snapshots.
type counters struct {
	PoolHits, PoolMisses, PoolEvictions, PoolFlushes uint64
	WALBytes, WALSyncs, WALSkips, WALRolls           uint64
	WALSegments                                      int
	ImportFallbacks                                  uint64
	Data, Log                                        ioSnapshot
	TransportCalls, AckFallbacks, Bootstraps         uint64
}

// syncs is the number of device flushes the engine issued: log and data
// device syncs on a local store, WAL syncs on the cluster's in-memory nodes.
func (c counters) syncs() uint64 {
	if n := uint64(c.Log.Syncs + c.Data.Syncs); n > 0 {
		return n
	}
	return c.WALSyncs
}

// bed is one workload's store under test.
type bed interface {
	kv() kvAPI
	exec(ctx context.Context, q string) ([][]cell, error)
	checkpoint() error
	checkpointSync() error
	vacuum() (reclaimed, skippedBusy int, err error)
	// crash kills the store the way kill -9 would and times its recovery:
	// a local store is reopened over the same files, a cluster promotes
	// each shard's follower. One duration per recovery performed.
	crash(ctx context.Context) ([]time.Duration, error)
	// finish runs a final vacuum, then roll, then a synchronous checkpoint,
	// closes the store and returns the data and log bytes it retains.
	finish(ctx context.Context, roll func() error) (data, log int64, err error)
	// close shuts a store down without the final housekeeping.
	close(ctx context.Context) error
	counters() counters
}

// --- pass-through device wrappers ---------------------------------------

// gate is shared by every wrapper of one open handle. Once dead, writes,
// truncates and syncs from that handle are dropped: the process "died"
// with whatever it had not yet written, while the OS page cache (writes
// already issued) survives, which is what kill -9 leaves behind.
//
// freeSync makes a device sync a counted no-op: the engine still issues
// every flush its policy asks for, the kernel is not called. The crash
// model above never needed the flush (the page cache survives), and on a
// shared sandbox disk an fsync costs 120 to 350 us depending on the minute,
// so the end-to-end run counts flushes and the traced run times real ones.
type gate struct {
	dead     atomic.Bool
	freeSync bool
	tr       *tracer
}

type countingDevice struct {
	storage.Device
	g    *gate
	c    *ioCounts
	name string // span prefix: "storage" or "wal"
}

// begin opens the span (traced pass only) and starts the clock of one
// device call; end closes both and adds to the call's counters.
func (d *countingDevice) begin(op string) (int32, time.Time) {
	sp := int32(-1)
	if d.g.tr != nil {
		sp = d.g.tr.beginAnywhere(d.name + op)
	}
	return sp, time.Now()
}

func (d *countingDevice) end(sp int32, t0 time.Time, calls, ns *atomic.Int64) {
	ns.Add(int64(time.Since(t0)))
	calls.Add(1)
	if sp >= 0 {
		d.g.tr.end(sp)
	}
}

func (d *countingDevice) ReadAt(p []byte, off int64) (int, error) {
	sp, t0 := d.begin(".read")
	n, err := d.Device.ReadAt(p, off)
	d.end(sp, t0, &d.c.reads, &d.c.readNs)
	return n, err
}

func (d *countingDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.g.dead.Load() {
		return len(p), nil
	}
	sp, t0 := d.begin(".write")
	n, err := d.Device.WriteAt(p, off)
	d.end(sp, t0, &d.c.writes, &d.c.writeNs)
	d.c.writeBytes.Add(int64(n))
	return n, err
}

func (d *countingDevice) Truncate(size int64) error {
	if d.g.dead.Load() {
		return nil
	}
	return d.Device.Truncate(size)
}

func (d *countingDevice) Sync() error {
	if d.g.dead.Load() {
		return nil
	}
	if d.g.freeSync {
		d.c.syncs.Add(1)
		return nil
	}
	sp, t0 := d.begin(".sync")
	err := d.Device.Sync()
	d.end(sp, t0, &d.c.syncs, &d.c.syncNs)
	return err
}

// countingSegmentDir wraps the WAL's segment directory so that every
// segment and the manifest are counted as log-device I/O.
type countingSegmentDir struct {
	wal.SegmentDir
	g *gate
	c *ioCounts
}

func (s *countingSegmentDir) wrap(dev storage.Device, err error) (storage.Device, error) {
	if err != nil {
		return nil, err
	}
	return &countingDevice{Device: dev, g: s.g, c: s.c, name: "wal"}, nil
}

func (s *countingSegmentDir) OpenSegment(seq uint64) (storage.Device, error) {
	return s.wrap(s.SegmentDir.OpenSegment(seq))
}

func (s *countingSegmentDir) OpenManifest() (storage.Device, error) {
	return s.wrap(s.SegmentDir.OpenManifest())
}

func (s *countingSegmentDir) RemoveSegment(seq uint64) error {
	if s.g.dead.Load() {
		return nil
	}
	return s.SegmentDir.RemoveSegment(seq)
}

func (s *countingSegmentDir) Sync() error {
	if s.g.dead.Load() || s.g.freeSync {
		return nil
	}
	return s.SegmentDir.Sync()
}

// hopBinding times every bound service invocation of the traced pass: one
// "core.hop" span per kernel hop (kv -> record at Layered, query for SQL).
type hopBinding struct{ tr *tracer }

func (b hopBinding) Bind(target core.Invoker) core.Invoker {
	return core.InvokerFunc(func(ctx context.Context, op string, req any) (any, error) {
		if !isClient(ctx) {
			return target.Invoke(ctx, op, req)
		}
		sp := b.tr.begin("core.hop", "")
		out, err := target.Invoke(ctx, op, req)
		b.tr.end(sp)
		return out, err
	})
}

func (hopBinding) Protocol() string { return "local+trace" }

// --- local store ----------------------------------------------------------

type localBed struct {
	dir      string
	frames   int
	freeSync bool
	tr       *tracer

	db        *sbdms.DB
	client    *sbdms.KVClient
	g         *gate
	data, log ioCounts
}

// openLocal opens a file-backed store in dir (created empty by the
// caller). With a tracer the kernel hops and device calls record spans.
func openLocal(dir string, frames int, freeSync bool, tr *tracer) (*localBed, error) {
	b := &localBed{dir: dir, frames: frames, freeSync: freeSync, tr: tr}
	if err := b.open(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *localBed) open() error {
	g := &gate{freeSync: b.freeSync, tr: b.tr}
	dev, err := storage.OpenFileDevice(filepath.Join(b.dir, "data.db"))
	if err != nil {
		return err
	}
	segs, err := wal.NewFileSegmentDir(filepath.Join(b.dir, "wal"))
	if err != nil {
		dev.Close()
		return err
	}
	opts := sbdms.Options{
		Device:       &countingDevice{Device: dev, g: g, c: &b.data, name: "storage"},
		LogDir:       &countingSegmentDir{SegmentDir: segs, g: g, c: &b.log},
		BufferFrames: b.frames,
	}
	if b.tr != nil {
		opts.Binding = hopBinding{b.tr}
	}
	db, err := sbdms.Open(opts)
	if err != nil {
		dev.Close()
		return err
	}
	b.db, b.g = db, g
	b.client = sbdms.NewKVClient(db.Kernel().Ref(sbdms.IfaceKV, nil))
	return nil
}

func (b *localBed) kv() kvAPI { return b.client }

func (b *localBed) exec(ctx context.Context, q string) ([][]cell, error) {
	res, err := b.db.Exec(ctx, q)
	if err != nil {
		return nil, err
	}
	rows := make([][]cell, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]cell, len(r))
		for j, v := range r {
			row[j] = cell{i: v.Int, s: v.Str}
		}
		rows[i] = row
	}
	return rows, nil
}

func (b *localBed) checkpoint() error {
	_, err := b.db.Checkpoint()
	return err
}

func (b *localBed) checkpointSync() error {
	_, err := b.db.CheckpointSync()
	return err
}

func (b *localBed) vacuum() (int, int, error) {
	st, err := b.db.Vacuum()
	return st.VersionsReclaimed, st.SkippedBusy, err
}

func (b *localBed) crash(ctx context.Context) ([]time.Duration, error) {
	old := b.db
	b.g.dead.Store(true)
	t0 := time.Now()
	if err := b.open(); err != nil {
		return nil, fmt.Errorf("reopen after kill: %w", err)
	}
	d := time.Since(t0)
	// Closing the dead handle only stops its goroutines and releases its
	// file descriptors; whatever it tries to flush is dropped.
	_ = old.Close(ctx)
	return []time.Duration{d}, nil
}

func (b *localBed) close(ctx context.Context) error { return b.db.Close(ctx) }

func (b *localBed) finish(ctx context.Context, roll func() error) (int64, int64, error) {
	if _, err := b.db.Vacuum(); err != nil {
		return 0, 0, err
	}
	if err := roll(); err != nil {
		return 0, 0, err
	}
	if _, err := b.db.CheckpointSync(); err != nil {
		return 0, 0, err
	}
	if err := b.db.Close(ctx); err != nil {
		return 0, 0, err
	}
	return b.diskBytes()
}

// diskBytes returns the size of the data file and of the retained WAL
// segment files (manifest included).
func (b *localBed) diskBytes() (data, logBytes int64, err error) {
	st, err := os.Stat(filepath.Join(b.dir, "data.db"))
	if err != nil {
		return 0, 0, err
	}
	entries, err := os.ReadDir(filepath.Join(b.dir, "wal"))
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		logBytes += info.Size()
	}
	return st.Size(), logBytes, nil
}

func (b *localBed) counters() counters {
	var c counters
	addDB(&c, b.db)
	c.Data, c.Log = b.data.snapshot(), b.log.snapshot()
	return c
}

func addDB(c *counters, db *sbdms.DB) {
	ps := db.Pool().Stats()
	c.PoolHits += ps.Hits
	c.PoolMisses += ps.Misses
	c.PoolEvictions += ps.Evictions
	c.PoolFlushes += ps.Flushes
	l := db.Log()
	c.WALBytes += uint64(l.NextLSN())
	c.WALSyncs += l.Syncs()
	c.WALSkips += l.WindowSkips()
	c.WALRolls += l.Rolls()
	c.WALSegments += l.SegmentCount()
	c.ImportFallbacks += db.ImportFallbacks()
}

// --- cluster store --------------------------------------------------------

// countingTransport sits between the bench's router and the cluster's
// transport: it counts invocations (replans and follower fallbacks show as
// extra calls) and, in the traced pass, times each one.
type countingTransport struct {
	inner cluster.Transport
	calls atomic.Uint64
	tr    *tracer
}

func (t *countingTransport) Invoke(ctx context.Context, node cluster.NodeID, service, op string, req any) (any, error) {
	t.calls.Add(1)
	if t.tr == nil || !isClient(ctx) {
		return t.inner.Invoke(ctx, node, service, op, req)
	}
	sp := t.tr.begin("cluster.transport", "")
	out, err := t.inner.Invoke(ctx, node, service, op, req)
	t.tr.end(sp)
	return out, err
}

const clusterShards = 2

type clusterBed struct {
	c      *cluster.Cluster
	router *cluster.Router
	tt     *countingTransport
}

// openCluster starts 2 shards x (leader + 1 follower) served over loopback
// TCP. Cluster nodes only support in-memory devices today.
func openCluster(frames int, tr *tracer) (*clusterBed, error) {
	c, err := cluster.New(cluster.Config{Shards: clusterShards, Followers: 1, UseNetbind: true, Frames: frames})
	if err != nil {
		return nil, err
	}
	tt := &countingTransport{inner: c.Faults(), tr: tr}
	router := cluster.NewRouter(tt, func(ctx context.Context) (*cluster.Map, error) {
		reg, err := c.Registry().Lookup(cluster.MapServiceName)
		if err != nil {
			return nil, err
		}
		res, err := reg.Invoker.Invoke(ctx, "get", nil)
		if err != nil {
			return nil, err
		}
		m, ok := res.(*cluster.Map)
		if !ok {
			return nil, fmt.Errorf("map service returned %T", res)
		}
		return m, nil
	})
	return &clusterBed{c: c, router: router, tt: tt}, nil
}

func (b *clusterBed) kv() kvAPI { return b.router }

func (b *clusterBed) exec(context.Context, string) ([][]cell, error) {
	return nil, errors.New("cluster store has no SQL surface")
}

func (b *clusterBed) checkpoint() error           { return nil }
func (b *clusterBed) checkpointSync() error       { return nil }
func (b *clusterBed) vacuum() (int, int, error)   { return 0, 0, nil }
func (b *clusterBed) leader(s int) cluster.NodeID { return b.c.Map().Shards[s].Leader }

// crash kills every shard's leader and promotes its follower. The caller
// has already waited for the followers to hold every acknowledged write.
func (b *clusterBed) crash(ctx context.Context) ([]time.Duration, error) {
	var out []time.Duration
	for s := 0; s < clusterShards; s++ {
		b.c.Kill(b.leader(s))
		d, err := b.c.Failover(s)
		if err != nil {
			return nil, fmt.Errorf("failover of shard %d: %w", s, err)
		}
		out = append(out, d)
	}
	return out, nil
}

func (b *clusterBed) close(ctx context.Context) error { return b.c.Close(ctx) }

// finish sums the leaders' data pages and retained log; cluster nodes keep
// both in memory, so there are no files to measure, and they never
// checkpoint, so there is no segment cycle for roll to align.
func (b *clusterBed) finish(ctx context.Context, _ func() error) (data, log int64, err error) {
	for s := 0; s < clusterShards; s++ {
		db := b.c.Node(b.leader(s)).DB()
		data += int64(db.Pool().NumPages()) * storage.PageSize
		log += int64(db.Log().Size())
	}
	return data, log, b.c.Close(ctx)
}

func (b *clusterBed) counters() counters {
	var c counters
	for s, sh := range b.c.Map().Shards {
		n := b.c.Node(sh.Leader)
		addDB(&c, n.DB())
		c.AckFallbacks += n.AckFallbacks()
		c.Bootstraps += b.c.Node(cluster.FollowerID(s, 0)).Bootstraps()
	}
	c.TransportCalls = b.tt.calls.Load()
	return c
}

// handlerProbe times n direct in-process invocations of the shard KV
// service's "get" on a leader's registry: the server-side share of a
// routed read, which netbind.self_us subtracts from the transport span.
func (b *clusterBed) handlerProbe(ctx context.Context, keys []string) ([]time.Duration, error) {
	m := b.c.Map()
	out := make([]time.Duration, 0, len(keys))
	for _, k := range keys {
		reg, err := b.c.Node(m.Shards[m.ShardFor(k)].Leader).Registry().Lookup(cluster.KVServiceName)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := reg.Invoker.Invoke(ctx, "get", cluster.GetReq{Epoch: m.Epoch, Key: k}); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}
