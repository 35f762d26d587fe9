package sbdms

import (
	"context"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/undo"
	"repro/internal/vacuum"
	"repro/internal/wal"
)

// Granularity selects how finely the DBMS is decomposed into services —
// the paper's central experimental variable.
type Granularity string

// Granularity profiles.
const (
	// Monolithic performs direct native calls: the Figure 1 baseline.
	Monolithic Granularity = "monolithic"
	// Coarse exposes one service per request type (KV service, query
	// service): one service hop per operation.
	Coarse Granularity = "coarse"
	// Layered routes operations through the Figure 2 layers: KV service
	// -> record service -> native storage (two hops per operation).
	Layered Granularity = "layered"
	// Fine additionally places the disk manager behind a service, so
	// buffer misses and flushes cross a service boundary too.
	Fine Granularity = "fine"
)

// Granularities lists all profiles, for sweeps.
var Granularities = []Granularity{Monolithic, Coarse, Layered, Fine}

// Options configures Open.
type Options struct {
	// Device is the data device (nil = in-memory).
	Device storage.Device
	// LogDir holds the WAL: numbered wal.NNNNNN segment files plus a
	// manifest, reclaimed by fuzzy-checkpoint truncation. Use
	// wal.NewFileSegmentDir for an on-disk log, wal.NewMemSegmentDir for
	// tests (nil = a fresh in-memory directory).
	LogDir wal.SegmentDir
	// WALSegmentBytes is the WAL's segment roll threshold (0 = 1 MiB).
	// Once the recovery-begin LSN passes a segment's end, the segment
	// file is deleted.
	WALSegmentBytes int
	// Granularity selects the service decomposition (default Layered).
	Granularity Granularity
	// BufferFrames sizes the buffer pool (default 256).
	BufferFrames int
	// Binding wraps every registered service with a communication
	// mechanism (nil = in-process). &netbind.Binding{} puts each
	// service behind its own loopback TCP hop; close it after the DB.
	Binding core.Binding
	// Coordinator tunes the kernel coordinator; zero value uses
	// defaults.
	Coordinator core.CoordinatorConfig
}

// DB is a running SBDMS instance: a kernel hosting the composed
// services, plus direct handles for the monolithic baseline.
type DB struct {
	kernel *core.Kernel
	opts   Options

	disk *storage.DiskManager
	pool *buffer.Manager
	fm   *storage.FileManager
	log  *wal.Log
	txns *txn.Manager
	undo *undo.Executor

	engine *sql.Engine
	kv     *kvCore

	// Service path handles (nil for Monolithic).
	kvRef    *core.Ref
	queryRef *core.Ref
	kvPath   KVBackend
}

// Open assembles and starts a database with the given options.
func Open(opts Options) (*DB, error) {
	if opts.Granularity == "" {
		opts.Granularity = Layered
	}
	if opts.BufferFrames <= 0 {
		opts.BufferFrames = 256
	}
	if opts.Device == nil {
		opts.Device = storage.NewMemDevice()
	}
	ctx := context.Background()

	db := &DB{opts: opts}
	coordCfg := opts.Coordinator
	if coordCfg == (core.CoordinatorConfig{}) {
		coordCfg = core.DefaultCoordinatorConfig()
	}
	db.kernel = core.NewKernel(core.WithCoordinatorConfig(coordCfg))

	// A torn disk-metadata write is salvageable: the page count is
	// re-derived from the device size and page content rebuilt from the
	// log during recovery below.
	disk, err := storage.OpenDisk(opts.Device, storage.WithMetaSalvage(true))
	if err != nil {
		return nil, err
	}
	db.disk = disk

	// WAL + crash recovery before anything reads the disk. Recovery's
	// redo repeats history; in-flight transactions with logical undo
	// descriptors are collected here and rolled back below, once the
	// transaction manager and access methods exist.
	dir := opts.LogDir
	if dir == nil {
		dir = wal.NewMemSegmentDir()
	}
	db.log, err = wal.OpenDir(dir, opts.WALSegmentBytes)
	if err != nil {
		return nil, err
	}
	recovered, err := wal.Recover(db.log, disk)
	if err != nil {
		return nil, fmt.Errorf("sbdms: recovery: %w", err)
	}
	if recovered.Changed() || recovered.FreeImages > 0 {
		// An actual crash was repaired, or the retained log holds free
		// markings whose allocator list-links may not all have reached
		// the device: relink every durably free-marked page so frees are
		// reclaimed instead of leaked.
		if _, err := disk.RebuildFreeList(); err != nil {
			return nil, fmt.Errorf("sbdms: rebuilding free list: %w", err)
		}
	}

	// The page store under the buffer pool: native disk, or — in the
	// fine profile — the disk service reached through the registry.
	var lower storage.PageStore = disk
	if opts.Granularity == Fine {
		if err := db.deploy(ctx, NewDiskService("disk", disk), nil); err != nil {
			return nil, err
		}
		lower = NewPageStoreClient(ctx, db.kernel.Ref(IfaceDisk, nil))
	}

	db.pool = buffer.New(lower, opts.BufferFrames, nil)
	db.pool.SetBeforeEvict(db.log.BeforeEvict())
	fm, err := storage.OpenFileManager(db.pool)
	if err != nil {
		return nil, err
	}
	db.fm = fm
	db.txns = txn.NewManager(db.log, db.pool)
	db.txns.EnsureIDsAbove(recovered.MaxTxnID)
	// Reseed the commit-timestamp clock above every stamped version on
	// disk (from commit records in the retained log and the checkpoint's
	// clock snapshot), so no post-recovery commit can outrank a
	// recovered version.
	db.txns.Oracle().EnsureClockAbove(recovered.MaxCommitTS)
	// From here on, directory and page-allocation updates run under
	// WAL-logged system transactions.
	fm.SetLogger(db.txns.PageLogger())
	// Logical rollback executor: live aborts and crash-loser rollback
	// both run inverse operations through it.
	db.undo = undo.NewExecutor(db.pool, db.log)
	db.undo.SetSystemTxns(db.txns.SystemHooksHeldLatches())
	db.txns.SetUndoHandler(db.undo)
	if len(recovered.Losers) > 0 {
		// Finish recovery: the losers' effects were redone (repeat
		// history); roll them back through the access methods, logging
		// redo-only compensations and closing each with an abort
		// record.
		if err := db.txns.UndoLosers(recovered.Losers); err != nil {
			return nil, fmt.Errorf("sbdms: rolling back in-flight transactions: %w", err)
		}
	}
	cat, err := catalog.Open(fm, db.pool, db.log)
	if err != nil {
		return nil, err
	}
	db.engine = sql.NewEngine(fm, db.pool, cat, db.txns, db.log)
	db.engine.SetUndo(db.undo)
	// The KV index recounts its entries unless the previous shutdown
	// was provably clean (SyncMeta's clean flag) AND recovery repaired
	// nothing.
	db.kv, err = newKVCore(fm, db.pool, db.txns, db.log, "__kv__", recovered.Changed())
	if err != nil {
		return nil, err
	}
	db.undo.Register(db.kv.idx)
	// Tombstone-head accounting waits for loser rollback (above): only
	// then is every head's tombstone flag settled.
	if err := db.kv.recountDead(); err != nil {
		return nil, fmt.Errorf("sbdms: recounting tombstones: %w", err)
	}
	// Make the freshly formatted (or recovered) store durable before
	// accepting traffic: every later mutation is WAL-logged, so this
	// baseline is the only state recovery ever has to read from disk.
	if err := db.Flush(); err != nil {
		return nil, err
	}

	if err := db.composeServices(ctx); err != nil {
		return nil, err
	}
	if err := db.kernel.Start(ctx); err != nil {
		return nil, err
	}
	return db, nil
}

// Checkpoint takes a fuzzy checkpoint now: in-flight transactions and
// concurrent writers are unaffected, recovery scans are bounded to the
// log suffix, and WAL segments below the new recovery-begin LSN are
// deleted. Returns the checkpoint record's LSN. Every step runs on the
// caller: when it returns, the dirty-page snapshot is on disk and
// recovery-begin has advanced, and a flush or manifest error is this
// call's error. A caller that wants the flush off its request path runs
// Checkpoint on a goroutine of its own.
func (db *DB) Checkpoint() (wal.LSN, error) {
	return db.txns.Checkpoint()
}

// CheckpointSync is Checkpoint under its older name, kept only because
// the frozen bench/ module calls it; stage 3-0 deletes it.
func (db *DB) CheckpointSync() (wal.LSN, error) { return db.Checkpoint() }

// wrap applies the configured binding to a service.
func (db *DB) wrap(s core.Service) core.Invoker {
	if db.opts.Binding == nil {
		return s
	}
	return core.BindService(s, db.opts.Binding)
}

// deploy registers and starts a service, storing its contract in the
// repository (setup phase of Section 3.3).
func (db *DB) deploy(ctx context.Context, s core.Service, tags map[string]string) error {
	if err := s.Start(ctx); err != nil {
		return err
	}
	if err := db.kernel.Repository().PutContract(s.Contract()); err != nil {
		return err
	}
	return db.kernel.Registry().Register(&core.Registration{
		Name:      s.Name(),
		Interface: s.Contract().Interface,
		Contract:  s.Contract(),
		Invoker:   db.wrap(s),
		Tags:      tags,
	})
}

// composeServices builds the service graph for the selected
// granularity profile.
func (db *DB) composeServices(ctx context.Context) error {
	switch db.opts.Granularity {
	case Monolithic:
		db.kvPath = db.kv // direct native calls
		return nil
	case Coarse:
		if err := db.deploy(ctx, NewKVService("kv", db.kv), nil); err != nil {
			return err
		}
	case Layered, Fine:
		// Record service wraps the native core; KV service wraps a
		// client of the record service: two boundaries per operation.
		if err := db.deploy(ctx, NewRecordService("record", db.kv), nil); err != nil {
			return err
		}
		recRef := db.kernel.Ref(IfaceRecord, nil)
		if err := db.deploy(ctx, NewKVService("kv", NewKVClient(recRef)), nil); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sbdms: unknown granularity %q", db.opts.Granularity)
	}
	if err := db.deploy(ctx, NewQueryService("query", db.engine), nil); err != nil {
		return err
	}
	db.kvRef = db.kernel.Ref(IfaceKV, nil)
	db.queryRef = db.kernel.Ref(IfaceQuery, nil)
	db.kvPath = NewKVClient(db.kvRef)
	return nil
}

// Kernel exposes the service kernel (registry, repository, coordinator,
// event bus) for extension, monitoring and reconfiguration.
func (db *DB) Kernel() *core.Kernel { return db.kernel }

// Engine exposes the native SQL engine (the monolithic baseline path).
func (db *DB) Engine() *sql.Engine { return db.engine }

// Pool exposes the buffer manager (for monitoring).
func (db *DB) Pool() *buffer.Manager { return db.pool }

// Log exposes the write-ahead log.
func (db *DB) Log() *wal.Log { return db.log }

// Txns exposes the transaction manager.
func (db *DB) Txns() *txn.Manager { return db.txns }

// Granularity reports the active profile.
func (db *DB) Granularity() Granularity { return db.opts.Granularity }

// Exec runs a SQL statement through the configured service path
// (direct engine call for Monolithic).
func (db *DB) Exec(ctx context.Context, query string) (*sql.Result, error) {
	if db.opts.Granularity == Monolithic || db.queryRef == nil {
		return db.engine.Execute(ctx, query)
	}
	out, err := db.queryRef.Invoke(ctx, "execute", query)
	if err != nil {
		return nil, err
	}
	res, ok := out.(*sql.Result)
	if !ok {
		return nil, fmt.Errorf("sbdms: query service returned %T", out)
	}
	return res, nil
}

// Put stores a key-value pair through the configured service path. The
// context bounds lock waits: a write blocked behind a conflicting
// transaction aborts cleanly when ctx is done.
func (db *DB) Put(ctx context.Context, key string, val []byte) error {
	return db.kvPath.Put(ctx, key, val)
}

// PutBatch stores several key-value pairs atomically under one
// transaction through the configured service path: one WAL force per
// batch, and all-or-nothing crash recovery.
func (db *DB) PutBatch(ctx context.Context, keys []string, vals [][]byte) error {
	return db.kvPath.PutBatch(ctx, keys, vals)
}

// Import bulk-loads key-value pairs through the configured service
// path. The batch may arrive in any order (it is sorted internally);
// duplicate keys are rejected with ErrImportDuplicate and oversized
// entries with ErrImportKeyTooLarge / ErrImportValueTooLarge, before
// any page is written. On an empty store the load takes the fast path:
// version cells packed page-at-a-time with one WAL record per page, the
// B+tree built bottom-up and published atomically by swapping the meta
// root pointer. On a non-empty store it falls back to one atomic
// per-key transaction — see ImportFallbacks. Either way the whole batch
// becomes visible at one commit timestamp: a crash mid-import recovers
// to all of the keys or none of them, and a cancel observed mid-load
// rolls the whole import back and leaves no partial state.
func (db *DB) Import(ctx context.Context, keys []string, vals [][]byte) error {
	return db.kvPath.Import(ctx, keys, vals)
}

// ImportFallbacks reports how many Import calls bypassed the bulk fast
// path (non-empty store, or a lost race against a concurrent insert)
// and loaded per-key instead.
func (db *DB) ImportFallbacks() uint64 { return db.kv.ImportFallbacks() }

// Get fetches a value through the configured service path: a lock-free
// read at a snapshot that holds every write acknowledged before the
// call. It is the get row of the KV table, leader-only in a cluster.
func (db *DB) Get(ctx context.Context, key string) ([]byte, error) {
	return db.kvPath.Get(ctx, key)
}

// DeleteKey removes a key through the configured service path.
func (db *DB) DeleteKey(ctx context.Context, key string) error {
	return db.kvPath.Delete(ctx, key)
}

// ScanKeys returns up to n keys from key onward as of one consistent
// MVCC snapshot that holds every write acknowledged before the call:
// the scan takes no key locks, never waits, never blocks writers, and
// never returns ErrConflict. It is the scan row of the KV table,
// leader-only in a cluster; ScanKeysSnapshot reads the same cut on a
// leader, as a snapshot-class row a follower may serve.
func (db *DB) ScanKeys(ctx context.Context, key string, n int) ([]string, error) {
	return db.kvPath.Scan(ctx, key, n)
}

// GetSnapshot reads key at one consistent MVCC snapshot: the newest
// version committed before the call, without taking any key locks —
// it never blocks behind writers and never sees their uncommitted
// versions (the context bounds service-path hops only).
func (db *DB) GetSnapshot(ctx context.Context, key string) ([]byte, error) {
	return db.kvPath.GetSnapshot(ctx, key)
}

// ScanKeysSnapshot returns up to n keys from key onward as of one
// consistent MVCC snapshot: the scan takes no key locks, never blocks
// behind writers, and never returns ErrConflict.
func (db *DB) ScanKeysSnapshot(ctx context.Context, key string, n int) ([]string, error) {
	return db.kvPath.ScanKeysSnapshot(ctx, key, n)
}

// Vacuum runs one synchronous MVCC reclamation pass over the KV
// keyspace: dead versions — those no live or future snapshot can
// resolve to — are unlinked and their heap slots freed, and fully-dead
// keys leave the index. The engine never vacuums on its own: the
// caller that owns the workload decides when.
func (db *DB) Vacuum() (vacuum.Stats, error) {
	return db.kv.Vacuum()
}

// KVLen returns the number of stored keys.
func (db *DB) KVLen(ctx context.Context) (uint64, error) { return db.kvPath.Len(ctx) }

// KV returns the configured service path as the backend the KV
// operation table runs against.
func (db *DB) KV() KVBackend { return db.kvPath }

// SetLogRetention installs a min-shipped-LSN provider on the WAL:
// checkpoint truncation keeps every segment at or above the reported
// LSN, so a cluster leader's shipper (internal/cluster) whose followers
// lag behind the checkpoint cadence resumes from its low-water mark
// instead of hitting ErrSegmentGone and re-bootstrapping them from a
// full copy. nil clears the hook.
func (db *DB) SetLogRetention(fn func() wal.LSN) { db.log.SetRetention(fn) }

// Flush makes all buffered data durable.
func (db *DB) Flush() error {
	if err := db.log.Flush(db.log.NextLSN()); err != nil {
		return err
	}
	return db.pool.FlushAll()
}

// Close flushes and stops the instance.
func (db *DB) Close(ctx context.Context) error {
	// Persist the KV index entry count (not WAL-logged per operation)
	// before the final flush so a clean reopen needs no recount.
	if err := db.kv.Close(); err != nil {
		return err
	}
	if err := db.Flush(); err != nil {
		return err
	}
	if err := db.kernel.Stop(ctx); err != nil {
		return err
	}
	return db.disk.Close()
}
