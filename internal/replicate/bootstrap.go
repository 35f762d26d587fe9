// Package replicate holds the follower side of the cluster's WAL
// shipping: a full-state Bootstrap of a leader (data-device image plus
// live log segments) and a FollowerWAL that keeps a byte-identical copy
// of the leader's log, so promotion is ordinary crash recovery. The
// cluster (internal/cluster) ships the records and applies their page
// effects through sbdms.ReplicaReader.
package replicate

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/storage"
	"repro/internal/wal"
)

// ErrSnapshotNeeded is returned when a follower cannot be brought up to
// date by tailing the live log: the follower got a record past a gap
// after its contiguous log end, as when a checkpoint truncated the
// history it still needed (wal.ErrSegmentGone on the leader). The cure
// is a full-state Bootstrap: copy the leader's data device and live log
// segments, then resume tailing from the snapshot's durable boundary.
var ErrSnapshotNeeded = errors.New("replicate: follower needs full-state snapshot")

// Bootstrap is a full-state snapshot of a leader: the raw data-device
// image (heap, index, and meta pages), the WAL manifest, and every live
// log segment's durable bytes. Seeding a follower from it yields a node
// whose device and log open to the leader's state at Durable; records
// from Durable onward arrive through shipping. All fields are plain
// bytes so the snapshot crosses process boundaries (netbind/gob)
// unchanged.
type Bootstrap struct {
	Device   []byte
	Manifest []byte
	Segments []wal.BootstrapSegment
	Durable  wal.LSN
}

// Snapshot captures a full-state bootstrap from a leader's data device
// and log. The device is copied BEFORE the log: the WAL rule guarantees
// every page image written back to the device is covered by records at
// or below a log boundary taken afterwards, so the pair (device, log)
// always recovers — the device may be older than the log's tail, never
// newer.
func Snapshot(dev storage.Device, log *wal.Log) (*Bootstrap, error) {
	size, err := dev.Size()
	if err != nil {
		return nil, fmt.Errorf("replicate: snapshot device size: %w", err)
	}
	image := make([]byte, size)
	if size > 0 {
		if _, err := dev.ReadAt(image, 0); err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("replicate: snapshot device: %w", err)
		}
	}
	manifest, segs, durable, err := log.SnapshotSegments()
	if err != nil {
		return nil, err
	}
	return &Bootstrap{Device: image, Manifest: manifest, Segments: segs, Durable: durable}, nil
}

// SeedDevice writes the snapshot's device image into dev (which should
// be empty).
func (b *Bootstrap) SeedDevice(dev storage.Device) error {
	if len(b.Device) == 0 {
		return nil
	}
	if _, err := dev.WriteAt(b.Device, 0); err != nil {
		return fmt.Errorf("replicate: seeding device: %w", err)
	}
	return dev.Sync()
}

// SeedSegmentDir writes the snapshot's manifest and segments into dir
// (which must be empty), producing a log directory identical to the
// leader's at the snapshot boundary.
func (b *Bootstrap) SeedSegmentDir(dir wal.SegmentDir) error {
	mdev, err := dir.OpenManifest()
	if err != nil {
		return err
	}
	if _, err := mdev.WriteAt(b.Manifest, 0); err != nil {
		return fmt.Errorf("replicate: seeding manifest: %w", err)
	}
	if err := mdev.Sync(); err != nil {
		return err
	}
	for _, s := range b.Segments {
		sdev, err := dir.OpenSegment(s.Seq)
		if err != nil {
			return err
		}
		if _, err := sdev.WriteAt(s.Data, 0); err != nil {
			return fmt.Errorf("replicate: seeding segment %d: %w", s.Seq, err)
		}
		if err := sdev.Sync(); err != nil {
			return err
		}
	}
	return dir.Sync()
}

// FollowerWAL maintains a byte-identical copy of a leader's log on a
// follower: shipped records are re-encoded at their leader-assigned LSN
// offsets into the follower's own SegmentDir, so promotion is just
// opening the directory with the real recovery path (redo repeats
// history, losers — including async-commit transactions whose records
// never finished shipping — roll back through the access methods).
//
// The follower never rolls segments: records past the seeded tail keep
// appending to the last seeded segment, which grows unboundedly until
// promotion (the promoted log's own checkpoints then truncate it).
type FollowerWAL struct {
	mu      sync.Mutex
	dir     wal.SegmentDir
	act     storage.Device // last seeded segment; all appends land here
	base    wal.LSN        // base LSN of act
	next    wal.LSN        // contiguous log end: next expected LSN
	synced  wal.LSN        // next at the last Sync
	scratch []byte
}

// OpenFollowerWAL seeds dir from the bootstrap snapshot and returns a
// follower log positioned to accept the record at b.Durable.
func OpenFollowerWAL(dir wal.SegmentDir, b *Bootstrap) (*FollowerWAL, error) {
	if len(b.Segments) == 0 {
		return nil, fmt.Errorf("replicate: bootstrap has no segments")
	}
	if err := b.SeedSegmentDir(dir); err != nil {
		return nil, err
	}
	last := b.Segments[len(b.Segments)-1]
	act, err := dir.OpenSegment(last.Seq)
	if err != nil {
		return nil, err
	}
	return &FollowerWAL{dir: dir, act: act, base: last.Base, next: b.Durable, synced: b.Durable}, nil
}

// Next returns the follower's contiguous log end: every record with
// LSN below it is present in the follower's copy.
func (f *FollowerWAL) Next() wal.LSN {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Append writes one shipped record at its leader-assigned offset.
// Returns (true, nil) when the record extended the log, (false, nil)
// when it was a duplicate redelivery (already present — the caller must
// also skip its page effects), and ErrSnapshotNeeded when the record
// leaves a gap: the follower missed history it can no longer obtain by
// tailing, and must re-bootstrap.
func (f *FollowerWAL) Append(rec *wal.Record) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if rec.LSN < f.next {
		return false, nil
	}
	if rec.LSN > f.next {
		return false, fmt.Errorf("%w: shipped record at LSN %d, follower log ends at %d",
			ErrSnapshotNeeded, rec.LSN, f.next)
	}
	f.scratch = wal.EncodeRecord(f.scratch[:0], rec)
	end := f.next + wal.LSN(len(f.scratch))
	if rec.End != 0 && rec.End != end {
		return false, fmt.Errorf("replicate: record at LSN %d re-encodes to end %d, leader end %d",
			rec.LSN, end, rec.End)
	}
	off := int64(wal.SegmentHeaderSize) + int64(rec.LSN-f.base)
	if _, err := f.act.WriteAt(f.scratch, off); err != nil {
		return false, fmt.Errorf("replicate: follower append at LSN %d: %w", rec.LSN, err)
	}
	f.next = end
	return true, nil
}

// Sync forces appended records to the follower's device. An async-commit
// ack only proves the record reached this follower's log; Sync bounds
// how much of that log a follower crash can lose.
func (f *FollowerWAL) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next == f.synced {
		return nil
	}
	if err := f.act.Sync(); err != nil {
		return err
	}
	f.synced = f.next
	return nil
}

// Dir returns the follower's segment directory — the LogDir to hand to
// the engine's Open on promotion.
func (f *FollowerWAL) Dir() wal.SegmentDir { return f.dir }
