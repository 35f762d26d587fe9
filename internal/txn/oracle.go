package txn

import (
	"errors"
	"sync"
)

// ErrHalted fails a WaitVisible whose wait can never end: the engine
// went offline leaving a commit timestamp in doubt (Halt).
var ErrHalted = errors.New("txn: oracle halted: a commit was left in doubt")

// Oracle allocates monotonically increasing commit timestamps and
// tracks which of them are still outstanding (allocated but not yet
// durably committed), plus the set of live snapshots reading below
// them. Together those two sets define the MVCC visibility frontier:
//
//   - VisibleTS: the highest timestamp every new snapshot may read.
//     It trails min(outstanding)-1 so a snapshot never observes a
//     version whose commit record is not yet durable — committing
//     transactions stamp their versions on the pages BEFORE forcing
//     the commit record, and only Complete (called after the force)
//     lets readers past them. A commit is acknowledged only once
//     VisibleTS has reached its timestamp (WaitVisible), so every
//     snapshot taken after an acknowledgement holds the write.
//   - Horizon: the highest timestamp no live snapshot can still need.
//     The vacuum reclaims versions strictly below the newest version
//     that is committed at or below the horizon; a reader at
//     readTS >= Horizon stops its chain walk at or before that pivot
//     version and never follows a reclaimed link.
//
// Timestamps live strictly below MarkBit: a version header whose begin
// field has MarkBit set instead carries the writing transaction's id
// and is invisible to every snapshot until commit stamps it.
type Oracle struct {
	mu          sync.Mutex
	clock       uint64              // last allocated commit timestamp
	outstanding map[uint64]struct{} // allocated, not yet completed
	snaps       map[uint64]int      // snapshot readTS -> refcount
	halted      bool                // Halt was called
	wake        chan struct{}       // closed by the next Complete or Halt; nil while no WaitVisible waits
}

// NewOracle creates a timestamp oracle with the clock at zero.
func NewOracle() *Oracle {
	return &Oracle{
		outstanding: make(map[uint64]struct{}),
		snaps:       make(map[uint64]int),
	}
}

// Clock returns the most recently allocated commit timestamp.
func (o *Oracle) Clock() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.clock
}

// EnsureClockAbove advances the clock to at least ts. The opener calls
// it with the highest commit timestamp recovery saw (commit records
// and the checkpoint's persisted clock), so a restarted engine never
// re-issues a timestamp that already stamps durable versions.
func (o *Oracle) EnsureClockAbove(ts uint64) {
	o.mu.Lock()
	if ts > o.clock {
		o.clock = ts
	}
	o.mu.Unlock()
}

// AllocateCommitTS hands out the next commit timestamp and marks it
// outstanding: VisibleTS stays below it until Complete reports the
// commit durable (or abandoned). Every allocation MUST be paired with
// exactly one Complete, except when the commit's durability is in
// doubt (a failed log force poisons the engine) — leaving the
// timestamp outstanding then is deliberate: no snapshot may ever read
// a version whose commit record might not survive a crash.
func (o *Oracle) AllocateCommitTS() uint64 {
	o.mu.Lock()
	o.clock++
	ts := o.clock
	o.outstanding[ts] = struct{}{}
	o.mu.Unlock()
	return ts
}

// Complete removes ts from the outstanding set, letting VisibleTS
// advance past it. Called after the commit record is durable, or when
// the allocating transaction aborted (its stamps are rolled back, so
// the gap timestamp is harmless).
func (o *Oracle) Complete(ts uint64) {
	o.mu.Lock()
	delete(o.outstanding, ts)
	o.wakeLocked()
	o.mu.Unlock()
}

// Halt ends every WaitVisible wait, now and later, with ErrHalted.
// The engine calls it when it goes offline: a commit whose durability
// is in doubt leaves its timestamp outstanding for good, and a wait
// for it would never end.
func (o *Oracle) Halt() {
	o.mu.Lock()
	o.halted = true
	o.wakeLocked()
	o.mu.Unlock()
}

func (o *Oracle) wakeLocked() {
	if o.wake != nil {
		close(o.wake)
		o.wake = nil
	}
}

// visibleLocked computes the snapshot frontier with o.mu held.
func (o *Oracle) visibleLocked() uint64 {
	v := o.clock
	for ts := range o.outstanding {
		if ts-1 < v {
			v = ts - 1
		}
	}
	return v
}

// VisibleTS returns the read timestamp a snapshot taken now receives:
// every version stamped at or below it belongs to a durably committed
// transaction.
func (o *Oracle) VisibleTS() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.visibleLocked()
}

// Snapshot is a registered read view: every version committed at or
// below ReadTS is visible, everything younger (or uncommitted) is not.
// The registration pins the vacuum horizon at or below ReadTS until
// Close; Close is idempotent.
type Snapshot struct {
	// ReadTS is the snapshot's visibility bound.
	ReadTS uint64

	o      *Oracle
	closed bool
	mu     sync.Mutex
}

// Snapshot registers and returns a new read view at the current
// visibility frontier.
func (o *Oracle) Snapshot() *Snapshot {
	o.mu.Lock()
	ts := o.visibleLocked()
	o.snaps[ts]++
	o.mu.Unlock()
	return &Snapshot{ReadTS: ts, o: o}
}

// WaitVisible returns once VisibleTS is at least ts: once every
// timestamp at or below ts has completed. A committer calls it after
// its own Complete and acknowledges only then, so a commit is never
// acknowledged ahead of an older one still stamping or forcing its log,
// and a snapshot taken after the acknowledgement holds the write. Halt
// ends the wait with ErrHalted.
func (o *Oracle) WaitVisible(ts uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.visibleLocked() < ts {
		if o.halted {
			return ErrHalted
		}
		if o.wake == nil {
			o.wake = make(chan struct{})
		}
		wake := o.wake
		o.mu.Unlock()
		<-wake
		o.mu.Lock()
	}
	return nil
}

// Close deregisters the snapshot, releasing its hold on the vacuum
// horizon. Safe to call more than once.
func (s *Snapshot) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.o.mu.Lock()
	if n := s.o.snaps[s.ReadTS]; n <= 1 {
		delete(s.o.snaps, s.ReadTS)
	} else {
		s.o.snaps[s.ReadTS] = n - 1
	}
	s.o.mu.Unlock()
}

// Horizon returns the oldest timestamp any live or future snapshot
// could still read: min over registered snapshots' ReadTS and the
// current VisibleTS. The vacuum may unlink any version superseded by a
// newer version that is committed at or below the horizon — no reader
// at readTS >= Horizon ever walks past that newer version, and every
// registered reader's readTS is >= Horizon by construction.
func (o *Oracle) Horizon() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	h := o.visibleLocked()
	for ts := range o.snaps {
		if ts < h {
			h = ts
		}
	}
	return h
}
