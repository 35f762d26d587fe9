package main

// class is an operation class; every latency metric belongs to one.
type class uint8

const (
	clRead   class = iota // Get / Router.Get / SQL point SELECT
	clSnap                // GetSnapshot / Router.GetSnapshot
	clScan                // ScanKeysSnapshot(50) / SQL indexed aggregate
	clWrite               // Put / Router.Put / SQL INSERT, to durable ack
	clUpdate              // SQL UPDATE by id (sql_mixed only)
	nClasses
)

var classNames = [nClasses]string{"read", "snap", "scan", "write", "update"}

type storeKind uint8

const (
	kindKV storeKind = iota
	kindSQL
	kindCluster
)

const (
	valueBytes = 100 // KV value size
	scanLen    = 50  // keys per range scan
	sqlCusts   = 150 // distinct cust values; rows/sqlCusts rows per aggregate
)

// spec is one workload: a store shape, a client model and an op mix.
type spec struct {
	name      string // BENCHMARK.json says why each workload exists
	kind      storeKind
	keys      int // keys (KV, cluster) or rows (SQL) loaded by set-up
	frames    int // buffer pool frames (4 KiB each)
	clients   int
	zipf      bool          // zipf(1.1) key popularity, else uniform
	mix       [nClasses]int // percent of ops per class
	openRate  int           // ops/s per client; 0 = closed loop
	ckptEvery int           // client 0 calls Checkpoint every this many of its ops
	vacEvery  int           // the last client calls Vacuum every this many of its ops
	rateHint  int           // expected ops/s per client, sizes the pre-generated stream
	tracedOps int           // ops in the counted and in the traced segment at -seconds 20
	crashOps  int           // acknowledged writes between checkpoint and kill
}

var specs = []spec{
	{
		name: "read_hot",
		kind: kindKV, keys: 20000, frames: 4096, clients: 1, zipf: true,
		mix:      [nClasses]int{clRead: 50, clSnap: 45, clScan: 5},
		rateHint: 80000, tracedOps: 60000, crashOps: 500,
	},
	{
		name: "read_cold",
		kind: kindKV, keys: 200000, frames: 512, clients: 1,
		mix:      [nClasses]int{clRead: 95, clScan: 5},
		rateHint: 50000, tracedOps: 40000, crashOps: 500,
	},
	{
		name: "write_mixed",
		kind: kindKV, keys: 20000, frames: 1024, clients: 2, zipf: true,
		mix:       [nClasses]int{clRead: 45, clScan: 5, clWrite: 50},
		ckptEvery: 2000, vacEvery: 4000,
		rateHint: 6000, tracedOps: 6000, crashOps: 500,
	},
	{
		name: "sql_mixed",
		kind: kindSQL, keys: 6000, frames: 2048, clients: 1,
		mix:      [nClasses]int{clRead: 60, clScan: 15, clWrite: 20, clUpdate: 5},
		rateHint: 5000, tracedOps: 3000, crashOps: 250,
	},
	{
		name: "cluster_remote",
		kind: kindCluster, keys: 20000, frames: 1024, clients: 1, zipf: true,
		mix:      [nClasses]int{clRead: 40, clSnap: 45, clScan: 5, clWrite: 10},
		openRate: 4000,
		rateHint: 4000, tracedOps: 8000, crashOps: 1000,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// quick shrinks a workload to smoke-test size.
func (s spec) quick() spec {
	if s.keys > 4000 {
		s.keys = 4000
	}
	if s.kind == kindSQL {
		s.keys = 600
	}
	s.tracedOps /= 10
	s.crashOps = 100
	if s.ckptEvery > 0 {
		s.ckptEvery, s.vacEvery = 200, 500
	}
	return s
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics; every workload reports all of
// them from the untraced run. BENCHMARK.json carries the same list with
// each metric's direction and regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"}, {"scan_p50_us", "us"}, {"write_p50_us", "us"},
	{"write_amp", "ratio"},
	{"syncs_per_write", "count"},
	{"space_amp", "ratio"},
	{"recovery_s", "s"},
}

// perLayer lists the per-layer metrics; every workload reports all of them
// from the traced run (0 where the layer is not on the workload's path).
var perLayer = []metricDef{
	{"cluster.router_self_us", "us"}, {"cluster.replans_per_kop", "count"},
	{"cluster.ack_fallbacks", "count"}, {"cluster.bootstraps", "count"},
	{"replicate.catchup_ms", "ms"}, {"replicate.stale_read_frac", "ratio"},
	{"netbind.self_us", "us"}, {"netbind.rtt_us", "us"}, {"netbind.rtt_4k_us", "us"},
	{"core.hops_per_op", "count"}, {"core.hop_self_us", "us"},
	{"core.dispatch_self_us", "us"}, {"core.ref_invoke_ns", "ns"},
	{"kv.native_read_us", "us"}, {"kv.native_snap_us", "us"},
	{"kv.native_scan_us", "us"}, {"kv.native_write_us", "us"},
	{"kv.snap_p50_us", "us"}, {"kv.snap_p95_us", "us"},
	{"client.read_p95_us", "us"}, {"client.scan_p95_us", "us"}, {"client.write_p95_us", "us"},
	{"kv.conflict_frac", "ratio"}, {"kv.import_keys_per_s", "1/s"}, {"kv.import_fallbacks", "count"},
	{"sql.parse_us", "us"}, {"sql.native_read_us", "us"}, {"sql.native_scan_us", "us"},
	{"sql.native_write_us", "us"}, {"sql.update_p50_us", "us"}, {"sql.update_p95_us", "us"},
	{"txn.lock_pair_s_ns", "ns"}, {"txn.lock_pair_x_ns", "ns"}, {"txn.commit_ns", "ns"},
	{"txn.checkpoints", "count"}, {"txn.checkpoint_ms_p50", "ms"}, {"txn.checkpoint_ms_max", "ms"},
	{"txn.ckpt_stall_write_p99_us", "us"},
	{"vacuum.runs", "count"}, {"vacuum.run_ms_p50", "ms"},
	{"vacuum.versions_reclaimed_per_run", "count"}, {"vacuum.skipped_busy_per_run", "count"},
	{"index.search_ns", "ns"}, {"index.insert_ns", "ns"}, {"index.range50_ns", "ns"},
	{"index.height", "count"}, {"index.search_cold_ns", "ns"}, {"index.height_cold", "count"},
	{"access.heap_insert_ns", "ns"}, {"access.heap_get_ns", "ns"},
	{"buffer.pins_per_op", "count"}, {"buffer.hit_rate", "ratio"}, {"buffer.misses_per_op", "count"},
	{"buffer.evictions_per_op", "count"}, {"buffer.flushes_per_op", "count"},
	{"buffer.pin_hit_ns", "ns"}, {"buffer.pin_miss_ns", "ns"},
	{"wal.bytes_per_write", "B"}, {"wal.syncs_per_write", "count"}, {"wal.window_skips", "count"},
	{"wal.rolls", "count"}, {"wal.segments_end", "count"}, {"wal.dev_writes_per_write", "count"},
	{"wal.dev_write_us_per_write", "us"}, {"wal.dev_sync_us_per_write", "us"},
	{"wal.synced_write_p50_us", "us"}, {"wal.synced_write_p95_us", "us"},
	{"wal.append_ns", "ns"}, {"wal.append_flush_us", "us"},
	{"storage.reads_per_op", "count"}, {"storage.read_us_per_op", "us"},
	{"storage.writes_per_op", "count"}, {"storage.write_bytes_per_op", "B"},
	{"storage.write_us_per_op", "us"}, {"storage.syncs_per_kop", "count"},
	{"storage.sync_ms_total", "ms"}, {"storage.data_bytes_end", "B"}, {"storage.wal_bytes_end", "B"},
	{"storage.readpage_ns", "ns"}, {"storage.writepage_ns", "ns"},
	{"proc.allocs_per_op", "count"}, {"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_pause_ms", "ms"}, {"proc.heap_peak_mb", "MB"},
	{"bench.trace_overhead_frac", "ratio"}, {"bench.late_frac", "ratio"},
	{"bench.self_time_err_frac", "ratio"},
}
