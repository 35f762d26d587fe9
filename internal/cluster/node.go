package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	sbdms "repro"
	"repro/internal/core"
	"repro/internal/netbind"
	"repro/internal/replicate"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Cluster service names and interfaces.
const (
	// KVServiceName is each node's shard KV service (epoch-guarded
	// client operations).
	KVServiceName = "shardkv"
	// IfaceShardKV is its logical interface.
	IfaceShardKV = "sbdms.cluster.ShardKV"
	// ReplServiceName is each node's replication service (leader ->
	// follower log shipping and bootstrap).
	ReplServiceName = "repl"
	// IfaceRepl is its logical interface.
	IfaceRepl = "sbdms.cluster.Replication"
)

// GetReq is the key request of the KV operation table; routed requests
// are the table's sbdms.KV*Request family, each carrying the shard-map
// epoch it was planned under.
type GetReq = sbdms.KVKeyRequest

// Replication wire types.
type (
	// ApplyReq ships a batch of WAL records plus the leader's
	// visibility frontier sampled before the batch was drained. UpTo
	// is the leader's shipped log end through this delivery: a
	// follower whose WAL copy ends below it has missed records (a
	// dropped earlier shipment) and must answer NeedSnapshot instead
	// of advancing its frontier — even for a record-free delivery.
	ApplyReq struct {
		From     NodeID
		Frontier uint64
		UpTo     wal.LSN
		Recs     []*wal.Record
	}
	// ApplyReply acknowledges an apply. Next is the follower's WAL
	// high-water mark (everything below it is on the follower);
	// NeedSnapshot asks the leader for a full-state bootstrap because
	// the follower found a gap it cannot tail across.
	ApplyReply struct {
		Next         wal.LSN
		NeedSnapshot bool
	}
	// SeedReq carries a full-state bootstrap image.
	SeedReq struct {
		Boot     *replicate.Bootstrap
		Frontier uint64
	}
)

func init() {
	netbind.RegisterType(ApplyReq{})
	netbind.RegisterType(ApplyReply{})
	netbind.RegisterType(SeedReq{})
	netbind.RegisterType(&Map{})
	netbind.RegisterType(uint64(0))
	netbind.RegisterType(true)
}

// NodeConfig parameterizes one cluster node.
type NodeConfig struct {
	// ID names the node; Shard is the partition it belongs to.
	ID    NodeID
	Shard int
	// AsyncCommit acks commits once a follower holds the record,
	// before the local WAL fsync. AckTimeout bounds the wait; on
	// timeout the commit falls back to a local fsync so the ack never
	// lies about durability.
	AsyncCommit bool
	AckTimeout  time.Duration
	// Frames sizes the buffer pool; WALSegmentBytes the log segments.
	// A node never checkpoints or vacuums on its own: whoever owns the
	// workload calls Checkpoint and Vacuum on the leader's DB.
	Frames          int
	WALSegmentBytes int
	// HeartbeatInterval paces record-free frontier shipments while the
	// queue is idle (default 25ms). Heartbeats are what make a lagging
	// follower converge without new writes: one that missed a dropped
	// batch sees the leader's log end in the heartbeat, answers
	// NeedSnapshot, and is re-bootstrapped.
	HeartbeatInterval time.Duration
}

// Node is one cluster member. A leader runs a full sbdms engine and
// ships its WAL; a follower holds a byte-identical WAL copy plus a
// ReplicaReader serving snapshot reads at the replicated frontier. A
// follower becomes a leader through Promote, which runs real crash
// recovery over its replicated state.
type Node struct {
	cfg       NodeConfig
	transport Transport
	registry  *core.Registry

	epoch        atomic.Uint64
	killed       atomic.Bool
	bootstraps   atomic.Uint64
	ackFallbacks atomic.Uint64

	mu        sync.Mutex
	leader    bool
	db        *sbdms.DB
	dataDev   *storage.FaultDevice
	followers []NodeID
	queue     *shipQueue
	acks      *acker
	shipDone  chan struct{}

	// wmu is the bootstrap write gate: client mutations hold it shared
	// for the duration of their engine call; a full-state snapshot
	// holds it exclusively while it flushes and copies the device, so
	// the copied image never contains torn pages from in-flight writes.
	wmu sync.RWMutex

	fmu    sync.Mutex
	fwal   *replicate.FollowerWAL
	fdev   *storage.FaultDevice
	reader *sbdms.ReplicaReader
}

// NewLeaderNode opens a node with a running engine, ready to own a
// shard. The data device is fault-injectable (kill -9 via
// CrashAfterWrites) and the WAL lives in an in-memory segment
// directory, mirroring the repo's crash harnesses.
func NewLeaderNode(cfg NodeConfig, transport Transport) (*Node, error) {
	n := newNode(cfg, transport)
	if err := n.openEngine(storage.NewFaultDevice(storage.NewMemDevice()), wal.NewMemSegmentDir()); err != nil {
		return nil, err
	}
	return n, nil
}

// NewFollowerNode opens an empty follower. Its first apply answers
// NeedSnapshot, pulling a full-state bootstrap from the leader.
func NewFollowerNode(cfg NodeConfig, transport Transport) (*Node, error) {
	return newNode(cfg, transport), nil
}

func newNode(cfg NodeConfig, transport Transport) *Node {
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 500 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 25 * time.Millisecond
	}
	n := &Node{cfg: cfg, transport: transport, registry: core.NewRegistry(nil)}
	n.epoch.Store(1)
	n.registerServices()
	return n
}

// ID returns the node ID.
func (n *Node) ID() NodeID { return n.cfg.ID }

// Registry returns the node's service registry (served over netbind in
// distributed deployments, invoked directly by LocalTransport).
func (n *Node) Registry() *core.Registry { return n.registry }

// SetEpoch installs the shard-map epoch this node accepts.
func (n *Node) SetEpoch(e uint64) { n.epoch.Store(e) }

// SetFollowers installs the follower set a leader ships to.
func (n *Node) SetFollowers(ids []NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.followers = append([]NodeID(nil), ids...)
}

// DB exposes the running engine (nil on followers).
func (n *Node) DB() *sbdms.DB {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.db
}

// Reader exposes the follower replica reader (nil before seeding).
func (n *Node) Reader() *sbdms.ReplicaReader {
	n.fmu.Lock()
	defer n.fmu.Unlock()
	return n.reader
}

// openEngine starts the sbdms engine on dev+dir and installs the
// leader-side replication machinery: the append observer feeding the
// ship queue, the ship goroutine, and (when configured) the
// async-commit durability hook.
func (n *Node) openEngine(dev *storage.FaultDevice, dir wal.SegmentDir) error {
	db, err := sbdms.Open(sbdms.Options{
		Device:          dev,
		LogDir:          dir,
		WALSegmentBytes: n.cfg.WALSegmentBytes,
		BufferFrames:    n.cfg.Frames,
		Granularity:     sbdms.Monolithic,
	})
	if err != nil {
		return err
	}

	q := newShipQueue()
	a := newAcker()
	done := make(chan struct{})

	n.mu.Lock()
	n.db, n.dataDev, n.leader = db, dev, true
	n.queue, n.acks, n.shipDone = q, a, done
	n.mu.Unlock()

	// Retention: checkpoint truncation never deletes segments the
	// shipper has not drained — the catch-up path for a lagging
	// follower stays tailable. (A follower that still gaps, e.g. after
	// rejoining from scratch, re-bootstraps via NeedSnapshot.) The hook
	// runs with the log mutex held, so it must derive its answer purely
	// from queue state — never by calling back into the log.
	db.SetLogRetention(q.lowWater)

	// Observer runs under the log mutex at the append point: deep-copy
	// and hand off, nothing else.
	db.Log().SetAppendObserver(func(rec *wal.Record) {
		q.push(cloneRecord(rec))
	})

	if n.cfg.AsyncCommit {
		db.Txns().SetCommitDurability(func(upTo wal.LSN) error {
			n.mu.Lock()
			nf := len(n.followers)
			n.mu.Unlock()
			if nf > 0 && a.wait(upTo, n.cfg.AckTimeout) {
				return nil
			}
			// No follower (or none acked in time): fall back to local
			// fsync so the commit acknowledgment never overstates
			// durability — degraded mode, counted for observability.
			if nf > 0 {
				n.ackFallbacks.Add(1)
			}
			return db.Log().Flush(upTo)
		})
	}

	go n.shipLoop(db, q, done)
	return nil
}

// cloneRecord deep-copies a record out of the log's append path (the
// original's slices alias the appender's buffers).
func cloneRecord(rec *wal.Record) *wal.Record {
	cp := *rec
	cp.Before = append([]byte(nil), rec.Before...)
	cp.After = append([]byte(nil), rec.After...)
	cp.Runs = append([]wal.Run(nil), rec.Runs...)
	cp.Undo = append([]byte(nil), rec.Undo...)
	return &cp
}

// shipLoop drains the queue and ships batches to every follower. The
// frontier is sampled BEFORE the drain: any commit timestamp visible at
// the sample had its records appended (and therefore enqueued) earlier,
// so the records backing everything at or below the shipped frontier
// are in this batch or an earlier one. Followers may thus serve
// snapshot reads at that frontier without missing versions.
func (n *Node) shipLoop(db *sbdms.DB, q *shipQueue, done chan struct{}) {
	defer close(done)
	hb := time.NewTicker(n.cfg.HeartbeatInterval)
	defer hb.Stop()
	for {
		select {
		case <-q.stopCh:
			return
		case <-q.sig:
		case <-hb.C:
		}
		frontier := db.Txns().Oracle().VisibleTS()
		batch := q.drain()
		n.mu.Lock()
		followers := append([]NodeID(nil), n.followers...)
		n.mu.Unlock()

		if len(batch) == 0 {
			// Idle heartbeat. Record-free frontier shipments are only
			// sound when every record appended so far has been shipped:
			// a commit visible at the frontier sample had its records
			// appended before the sample, so appended==shipped proves
			// the followers (modulo drops, which UpTo exposes) hold its
			// backing records.
			upTo := q.shippedEnd()
			if q.appendedEnd() != upTo {
				continue // records in flight; the next batch carries the frontier
			}
			for _, f := range followers {
				n.shipTo(db, f, nil, frontier, upTo)
			}
			continue
		}

		upTo := batch[len(batch)-1].End
		for _, f := range followers {
			n.shipTo(db, f, batch, frontier, upTo)
		}
		q.shipped(upTo)

		// The batch's own commits usually complete (become visible)
		// while the batch is in flight; a record-free frontier bump
		// lets followers serve them without waiting for the next write.
		// Sound only if nothing was appended since the drain (same
		// argument as the idle heartbeat); otherwise the next batch —
		// or the heartbeat — carries the newer frontier.
		if bump := db.Txns().Oracle().VisibleTS(); bump > frontier && q.appendedEnd() == upTo {
			for _, f := range followers {
				n.shipTo(db, f, nil, bump, upTo)
			}
		}
	}
}

// shipTo delivers one batch to one follower, bootstrapping it first if
// it reports a gap. Transport errors are dropped: the follower will
// gap on the next delivery and self-heal through NeedSnapshot.
func (n *Node) shipTo(db *sbdms.DB, f NodeID, batch []*wal.Record, frontier uint64, upTo wal.LSN) {
	reply, err := n.invokeApply(f, &ApplyReq{From: n.cfg.ID, Frontier: frontier, UpTo: upTo, Recs: batch})
	if err != nil {
		return
	}
	if reply.NeedSnapshot {
		if err := n.bootstrapFollower(db, f); err != nil {
			return
		}
		// Redeliver the batch the bootstrap interrupted; the follower
		// WAL skips whatever the snapshot already covers.
		reply, err = n.invokeApply(f, &ApplyReq{From: n.cfg.ID, Frontier: frontier, UpTo: upTo, Recs: batch})
		if err != nil || reply.NeedSnapshot {
			return
		}
	}
	n.acks.advance(f, reply.Next)
}

func (n *Node) invokeApply(f NodeID, req *ApplyReq) (ApplyReply, error) {
	//lint:ignore ctxflow the ship daemon has no request context; the timeout bounds the RPC
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := n.transport.Invoke(ctx, f, ReplServiceName, "apply", req)
	if err != nil {
		return ApplyReply{}, err
	}
	switch r := res.(type) {
	case ApplyReply:
		return r, nil
	case *ApplyReply:
		return *r, nil
	}
	return ApplyReply{}, fmt.Errorf("cluster: unexpected apply reply %T", res)
}

// bootstrapFollower sends a full-state snapshot: frontier sample, then
// data-device flush, then device+log copy — in that order, so the
// device image is never newer than the log copy and the sampled
// frontier is fully covered by the flushed state.
func (n *Node) bootstrapFollower(db *sbdms.DB, f NodeID) error {
	// Exclusive side of the write gate: no client mutation runs while
	// the device is flushed and copied. The gate is released before the
	// seed RPC — the image is materialized in memory by then, and
	// records logged after it ship (or dedup) through the normal path.
	// Ack-waiters holding the shared gate are interrupted first (they
	// fall back to a local fsync); otherwise they would wait on this
	// very goroutine while it waits on them.
	n.mu.Lock()
	a := n.acks
	n.mu.Unlock()
	if a != nil {
		a.interrupt()
	}
	n.wmu.Lock()
	frontier := db.Txns().Oracle().VisibleTS()
	err := db.Flush()
	var boot *replicate.Bootstrap
	if err == nil {
		n.mu.Lock()
		dev := n.dataDev
		n.mu.Unlock()
		boot, err = replicate.Snapshot(dev, db.Log())
	}
	n.wmu.Unlock()
	if err != nil {
		return err
	}
	//lint:ignore ctxflow the ship daemon has no request context; the timeout bounds the RPC
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = n.transport.Invoke(ctx, f, ReplServiceName, "seed", &SeedReq{Boot: boot, Frontier: frontier})
	return err
}

// Promote turns a seeded follower into a leader: flush the replica
// state, then open a REAL engine over the replicated device and the
// follower's WAL copy. Opening runs crash recovery — committed
// transactions are redone from the copied log and unfinished ones
// (including async-commit losers whose ack raced the old leader's
// death) are rolled back, which is exactly the failover contract:
// an acknowledged async commit survives here or nowhere.
func (n *Node) Promote() error {
	n.fmu.Lock()
	reader, fwal, fdev := n.reader, n.fwal, n.fdev
	n.reader, n.fwal, n.fdev = nil, nil, nil
	n.fmu.Unlock()
	if reader == nil || fwal == nil {
		return errors.New("cluster: promote: follower was never seeded")
	}
	if err := reader.Close(); err != nil {
		return err
	}
	return n.openEngine(fdev, fwal.Dir())
}

// Kill is kill -9: the data device starts failing every access (via
// the FaultDevice, so nothing buffered after the crash point survives)
// and the ship loop stops. The engine is abandoned un-closed —
// deliberately: Close would flush, and a dead process doesn't.
func (n *Node) Kill() {
	n.killed.Store(true)
	n.mu.Lock()
	db, dev, q := n.db, n.dataDev, n.queue
	n.mu.Unlock()
	if dev != nil {
		dev.CrashAfterWrites(0, 0)
	}
	if q != nil {
		q.stop()
	}
	_ = db // abandoned: no flush, no close
	n.fmu.Lock()
	fdev := n.fdev
	n.fmu.Unlock()
	if fdev != nil {
		fdev.CrashAfterWrites(0, 0)
	}
}

// Close shuts the node down cleanly (tests' happy path).
func (n *Node) Close(ctx context.Context) error {
	n.mu.Lock()
	db, q, done := n.db, n.queue, n.shipDone
	n.db = nil
	n.mu.Unlock()
	if q != nil {
		q.stop()
		<-done
	}
	var err error
	if db != nil {
		db.Log().SetAppendObserver(nil)
		err = db.Close(ctx)
	}
	n.fmu.Lock()
	reader := n.reader
	n.reader = nil
	n.fmu.Unlock()
	if reader != nil {
		if cerr := reader.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// --- services -----------------------------------------------------------

func (n *Node) registerServices() {
	contract := sbdms.KVContract()
	contract.Interface = IfaceShardKV
	contract.Description.Summary = "epoch-guarded shard KV operations"
	kv := sbdms.ServeKV(core.NewService(KVServiceName, contract), n)

	repl := core.NewService(ReplServiceName, &core.Contract{
		Interface: IfaceRepl,
		Operations: []core.OpSpec{
			{Name: "apply", In: "cluster.ApplyReq", Out: "cluster.ApplyReply", Semantic: "repl.apply"},
			{Name: "seed", In: "cluster.SeedReq", Out: "bool", Semantic: "repl.seed"},
		},
		Description: core.Description{Summary: "WAL shipping apply and full-state bootstrap"},
	})
	repl.Handle("apply", func(ctx context.Context, req any) (any, error) {
		r, ok := req.(*ApplyReq)
		if !ok {
			if v, okv := req.(ApplyReq); okv {
				r = &v
			} else {
				return nil, &core.RequestError{Op: "apply", Want: "cluster request", Got: core.TypeName(req)}
			}
		}
		return n.handleApply(r)
	})
	repl.Handle("seed", func(ctx context.Context, req any) (any, error) {
		r, ok := req.(*SeedReq)
		if !ok {
			if v, okv := req.(SeedReq); okv {
				r = &v
			} else {
				return nil, &core.RequestError{Op: "seed", Want: "cluster request", Got: core.TypeName(req)}
			}
		}
		return true, n.handleSeed(r)
	})

	for _, svc := range []*core.BaseService{kv, repl} {
		//lint:ignore ctxflow service start runs no hooks; there is no request context at construction time
		if err := svc.Start(context.Background()); err != nil {
			panic(fmt.Sprintf("cluster: starting %s: %v", svc.Name(), err))
		}
		if err := n.registry.RegisterService(svc, map[string]string{"node": string(n.cfg.ID)}); err != nil {
			panic(fmt.Sprintf("cluster: registering %s: %v", svc.Name(), err))
		}
	}
}

// Acquire implements sbdms.KVProvider: the one guard in front of every
// shardkv operation, decided by the operation's class alone. Every
// class needs the node's epoch. Snapshot reads are served by whatever
// state the node holds, a follower's replica first; locking reads and
// writes need the leader's engine, and writes also hold the shared side
// of the bootstrap write gate (see Node.wmu) until Release.
func (n *Node) Acquire(op *sbdms.KVOp, epoch uint64) (sbdms.KVBackend, error) {
	if cur := n.epoch.Load(); epoch != cur {
		return nil, fmt.Errorf("%w (node at %d, request planned at %d)", ErrEpochChanged, cur, epoch)
	}
	if op.Class == sbdms.KVSnapshotRead {
		if reader := n.Reader(); reader != nil {
			return reader, nil
		}
	}
	n.mu.Lock()
	leader, db := n.leader, n.db
	n.mu.Unlock()
	if !leader && op.Class != sbdms.KVSnapshotRead {
		return nil, fmt.Errorf("%w: %s", ErrNotLeader, n.cfg.ID)
	}
	if db == nil {
		return nil, fmt.Errorf("%w: node %s holds no state", ErrNotLeader, n.cfg.ID)
	}
	if op.Class == sbdms.KVWrite {
		n.wmu.RLock()
	}
	return db.KV(), nil
}

// Release implements sbdms.KVProvider.
func (n *Node) Release(op *sbdms.KVOp) {
	if op.Class == sbdms.KVWrite {
		n.wmu.RUnlock()
	}
}

// handleApply appends shipped records to the follower's WAL copy,
// syncs it, and applies the batch to the replica reader at the shipped
// frontier. Redelivered records are deduplicated by LSN in the WAL
// copy; the reader applies EVERY record and relies on the ARIES
// pageLSN guard for idempotence — that also converges records logged
// concurrently with a bootstrap flush, whose effects may or may not be
// in the seeded image. A gap answers NeedSnapshot.
func (n *Node) handleApply(req *ApplyReq) (ApplyReply, error) {
	n.fmu.Lock()
	defer n.fmu.Unlock()
	if n.fwal == nil || n.reader == nil {
		return ApplyReply{NeedSnapshot: true}, nil
	}
	for _, rec := range req.Recs {
		if _, err := n.fwal.Append(rec); err != nil {
			if errors.Is(err, replicate.ErrSnapshotNeeded) {
				return ApplyReply{NeedSnapshot: true}, nil
			}
			return ApplyReply{}, err
		}
	}
	// A WAL copy ending below the leader's shipped end means an
	// earlier delivery was lost: do NOT advance the frontier past
	// records this follower never received — re-bootstrap instead.
	// This is what makes record-free frontier shipments (heartbeats)
	// gap-safe.
	if n.fwal.Next() < req.UpTo {
		return ApplyReply{NeedSnapshot: true}, nil
	}
	// WAL copy first, then page effects — the replica obeys the same
	// write-ahead rule as the leader.
	if err := n.fwal.Sync(); err != nil {
		return ApplyReply{}, err
	}
	if err := n.reader.ApplyBatch(req.Recs, req.Frontier); err != nil {
		return ApplyReply{}, err
	}
	return ApplyReply{Next: n.fwal.Next()}, nil
}

// handleSeed installs a full-state bootstrap: fresh WAL copy, fresh
// device seeded with the leader's image, fresh replica reader at the
// shipped frontier. Any previous follower state is discarded (the
// bootstrap supersedes it).
func (n *Node) handleSeed(req *SeedReq) error {
	if req.Boot == nil {
		return errors.New("cluster: seed without bootstrap")
	}
	dir := wal.NewMemSegmentDir()
	fwal, err := replicate.OpenFollowerWAL(dir, req.Boot)
	if err != nil {
		return err
	}
	dev := storage.NewFaultDevice(storage.NewMemDevice())
	if err := req.Boot.SeedDevice(dev); err != nil {
		return err
	}
	reader, err := sbdms.OpenReplicaReader(dev, n.cfg.Frames)
	if err != nil {
		return err
	}
	if err := reader.ApplyBatch(nil, req.Frontier); err != nil {
		return err
	}
	n.fmu.Lock()
	old := n.reader
	n.fwal, n.fdev, n.reader = fwal, dev, reader
	n.fmu.Unlock()
	n.bootstraps.Add(1)
	if old != nil {
		_ = old.Close()
	}
	return nil
}

// Bootstraps counts how many full-state seeds this node has installed
// (each one is a traversal of the ErrSnapshotNeeded path).
func (n *Node) Bootstraps() uint64 { return n.bootstraps.Load() }

// AckFallbacks counts async commits that timed out waiting for a
// follower ack and fell back to a local fsync (degraded durability:
// on the leader only, not on another node).
func (n *Node) AckFallbacks() uint64 { return n.ackFallbacks.Load() }

// --- ship queue and acks ------------------------------------------------

// shipQueue is the hand-off between the WAL append observer (producer,
// under the log mutex) and the ship goroutine (consumer).
type shipQueue struct {
	mu       sync.Mutex
	recs     []*wal.Record
	low      wal.LSN // everything below is drained AND shipped
	appended wal.LSN // End of the newest record the observer pushed
	stopped  bool

	sig    chan struct{} // capacity 1: "records arrived"
	stopCh chan struct{} // closed on stop
}

func newShipQueue() *shipQueue {
	return &shipQueue{sig: make(chan struct{}, 1), stopCh: make(chan struct{})}
}

func (q *shipQueue) push(rec *wal.Record) {
	q.mu.Lock()
	q.recs = append(q.recs, rec)
	if rec.End > q.appended {
		q.appended = rec.End
	}
	q.mu.Unlock()
	select {
	case q.sig <- struct{}{}:
	default:
	}
}

func (q *shipQueue) drain() []*wal.Record {
	q.mu.Lock()
	defer q.mu.Unlock()
	recs := q.recs
	q.recs = nil
	return recs
}

func (q *shipQueue) shipped(end wal.LSN) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if end > q.low {
		q.low = end
	}
}

// shippedEnd is the log end through the last delivered batch.
func (q *shipQueue) shippedEnd() wal.LSN {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.low
}

// appendedEnd is the log end through the newest observed append.
// appendedEnd == shippedEnd means every record the engine ever logged
// has been handed to the followers — the soundness condition for
// record-free frontier shipments.
func (q *shipQueue) appendedEnd() wal.LSN {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.appended
}

// lowWater reports the minimum LSN the shipper still needs: the oldest
// unshipped record, or the shipped watermark when the queue is drained.
// Called as the log-retention hook (under the log mutex), so it reads
// only queue state.
func (q *shipQueue) lowWater() wal.LSN {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.recs) > 0 {
		return q.recs[0].LSN
	}
	return q.low
}

func (q *shipQueue) stop() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.stopped {
		q.stopped = true
		close(q.stopCh)
	}
}

// acker tracks per-follower acknowledged WAL positions and wakes
// async committers when the high-water mark advances. The channel-swap
// pattern gives a timed wait sync.Cond cannot.
type acker struct {
	mu     sync.Mutex
	byNode map[NodeID]wal.LSN
	best   wal.LSN
	gen    uint64 // bumped by interrupt; waiters re-check and bail
	ch     chan struct{}
}

func newAcker() *acker {
	return &acker{byNode: make(map[NodeID]wal.LSN), ch: make(chan struct{})}
}

func (a *acker) advance(id NodeID, lsn wal.LSN) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if lsn > a.byNode[id] {
		a.byNode[id] = lsn
	}
	if lsn > a.best {
		a.best = lsn
		close(a.ch)
		a.ch = make(chan struct{})
	}
}

// interrupt wakes every waiter and makes it give up (fall back to a
// local fsync). Called before a bootstrap takes the exclusive write
// gate: a committer waiting for an ack holds the shared gate, the ack
// needs the ship loop, and the ship loop is about to block on the gate
// — the interrupt breaks that cycle.
func (a *acker) interrupt() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gen++
	close(a.ch)
	a.ch = make(chan struct{})
}

// wait blocks until some follower holds everything below upTo, or the
// timeout lapses, or an interrupt arrives (false).
func (a *acker) wait(upTo wal.LSN, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	a.mu.Lock()
	gen := a.gen
	a.mu.Unlock()
	for {
		a.mu.Lock()
		if a.best >= upTo {
			a.mu.Unlock()
			return true
		}
		if a.gen != gen {
			a.mu.Unlock()
			return false
		}
		ch := a.ch
		a.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return false
		}
		t := time.NewTimer(remaining)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return false
		}
	}
}
