package sbdms

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Replica errors.
var (
	// ErrReplicaClosed is returned by reads on a closed ReplicaReader.
	ErrReplicaClosed = errors.New("sbdms: replica reader closed")
	// ErrReplicaReadOnly is returned by every KV operation of a
	// ReplicaReader other than the two snapshot reads.
	ErrReplicaReadOnly = errors.New("sbdms: replica reader serves snapshot reads only")
)

// ReplicaReader is the follower side of log-shipped replication: a
// read-only engine over a bootstrap copy of a leader's data device.
// Shipped page-update records are applied through its own buffer pool,
// and snapshot reads (GetSnapshot / ScanKeysSnapshot) are served at the
// replicated visibility frontier — the leader's oracle frontier as of
// the last applied batch — so a follower never exposes a version the
// leader had not made visible, and never a torn prefix of a batch.
//
// Apply and read are serialized by a batch-granularity RWMutex rather
// than per-page latches: the frontier only advances at batch
// boundaries, so readers either see all of a batch's pages or none,
// which is exactly the atomicity the frontier timestamp promises.
// Vacuum never runs here (no writers), so frontier-visible versions
// are never reclaimed under a reader.
type ReplicaReader struct {
	leaderOnly
	dev  storage.Device
	disk *storage.DiskManager
	pool *buffer.Manager
	kv   *kvCore

	mu       sync.RWMutex  // apply batches (W) vs snapshot reads (R)
	frontier atomic.Uint64 // commit-TS visibility frontier
	closed   atomic.Bool
}

// leaderOnly refuses the leader reads and the writes, which makes a
// ReplicaReader a KVBackend: a follower provides the KV contract with
// only its snapshot-read class served.
type leaderOnly struct{}

func (leaderOnly) Put(context.Context, string, []byte) error          { return ErrReplicaReadOnly }
func (leaderOnly) PutBatch(context.Context, []string, [][]byte) error { return ErrReplicaReadOnly }
func (leaderOnly) Import(context.Context, []string, [][]byte) error   { return ErrReplicaReadOnly }
func (leaderOnly) Delete(context.Context, string) error               { return ErrReplicaReadOnly }
func (leaderOnly) Len(context.Context) (uint64, error)                { return 0, ErrReplicaReadOnly }
func (leaderOnly) Get(context.Context, string) ([]byte, error)        { return nil, ErrReplicaReadOnly }
func (leaderOnly) Scan(context.Context, string, int) ([]string, error) {
	return nil, ErrReplicaReadOnly
}

// OpenReplicaReader opens a follower reader over dev, which must hold a
// bootstrap image of a leader's data device (replicate.Bootstrap
// seeded; the leader formats the KV structures at its own Open, so the
// image always contains them). frames sizes the private buffer pool
// (<= 0 selects the engine default).
func OpenReplicaReader(dev storage.Device, frames int) (*ReplicaReader, error) {
	if frames <= 0 {
		frames = 256
	}
	disk, err := storage.OpenDisk(dev)
	if err != nil {
		return nil, fmt.Errorf("sbdms: replica device: %w", err)
	}
	pool := buffer.New(disk, frames, nil)
	fm, err := storage.OpenFileManager(pool)
	if err != nil {
		return nil, err
	}
	kv, err := openReplicaKV(fm, pool, "__kv__")
	if err != nil {
		return nil, err
	}
	return &ReplicaReader{dev: dev, disk: disk, pool: pool, kv: kv}, nil
}

// ApplyBatch applies one shipped batch of records in LSN order and then
// publishes frontier as the new read timestamp. The caller (the cluster
// follower) must have deduplicated redeliveries — every record here
// must be new to this replica. Readers are excluded for the duration of
// the batch, so a scan never observes half a batch.
func (r *ReplicaReader) ApplyBatch(recs []*wal.Record, frontier uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range recs {
		if rec.Type == wal.RecUpdate {
			if err := r.applyUpdateLocked(rec); err != nil {
				return err
			}
		}
	}
	if frontier > r.frontier.Load() {
		r.frontier.Store(frontier)
	}
	return nil
}

// applyUpdateLocked replays one page-update record into the replica's
// pool, exactly as recovery redo would: skip if the page already
// carries the effect (pageLSN at or past the record), else apply the
// record's runs and advance the page LSN (wal.Record.Redo). The guard makes
// apply idempotent, which covers both shipped redeliveries and records
// straddling a bootstrap image (the image may or may not already hold
// effects logged concurrently with the bootstrap flush).
func (r *ReplicaReader) applyUpdateLocked(rec *wal.Record) error {
	if err := r.disk.EnsureAllocated(rec.PageID); err != nil {
		return fmt.Errorf("sbdms: replica allocating page %d: %w", rec.PageID, err)
	}
	f, err := r.pool.PinLatched(rec.PageID, true)
	if err != nil {
		return err
	}
	p := f.Page()
	if p.LSN() >= uint64(rec.LSN) {
		return r.pool.UnpinLatched(rec.PageID, true, false)
	}
	rec.Redo(p)
	return r.pool.UnpinLatched(rec.PageID, true, true)
}

// Frontier returns the replicated visibility frontier: the commit
// timestamp snapshot reads are served at.
func (r *ReplicaReader) Frontier() uint64 { return r.frontier.Load() }

// GetSnapshot reads k at the replicated frontier. Uncommitted and
// not-yet-replicated versions are invisible; a visible tombstone is
// ErrKeyNotFound.
func (r *ReplicaReader) GetSnapshot(ctx context.Context, k string) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed.Load() {
		return nil, ErrReplicaClosed
	}
	return r.kv.getSnapshotAt(ctx, k, r.frontier.Load())
}

// ScanKeysSnapshot scans up to n keys from from at the replicated
// frontier: one consistent cut of the replicated key space.
func (r *ReplicaReader) ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed.Load() {
		return nil, ErrReplicaClosed
	}
	return r.kv.scanKeysSnapshotAt(ctx, from, n, r.frontier.Load())
}

// Flush writes every applied page back to the replica's device and
// syncs it. Called before promotion: the promoted engine re-opens the
// device with the follower's WAL copy and runs real crash recovery over
// the pair.
func (r *ReplicaReader) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.pool.FlushAll(); err != nil {
		return err
	}
	return r.dev.Sync()
}

// Close flushes and retires the reader. The device remains valid — for
// promotion, hand it to Open together with the follower's WAL
// directory.
func (r *ReplicaReader) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	return r.Flush()
}
