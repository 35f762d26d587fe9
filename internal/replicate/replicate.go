// Package replicate implements the replication Extension Service of
// Figure 2: asynchronous log shipping from a primary to any number of
// replicas, replica apply with idempotence via LSN watermarks, lag
// inspection, and promotion — the mechanism behind "if a storage
// service exhibits reduced performance ... our architecture can use or
// adapt an alternative storage service to prevent system failures"
// (Section 4).
package replicate

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
	"repro/internal/wal"
)

// Replication errors.
var (
	// ErrNotPrimary is returned for primary-only operations on a
	// replica.
	ErrNotPrimary = errors.New("replicate: not primary")
	// ErrStopped is returned after Stop.
	ErrStopped = errors.New("replicate: stopped")
)

// Role of a replication node.
type Role int

// Roles.
const (
	RolePrimary Role = iota
	RoleReplica
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "replica"
}

// Replica is the receiving end of log shipping: it applies update
// records to its own page store, tracking the apply watermark.
type Replica struct {
	name  string
	store storage.PageStore

	mu      sync.Mutex
	applied wal.LSN
	count   int
	role    Role
}

// NewReplica creates a replica applying into store.
func NewReplica(name string, store storage.PageStore) *Replica {
	return &Replica{name: name, store: store, role: RoleReplica}
}

// Name returns the replica name.
func (r *Replica) Name() string { return r.name }

// Role returns the node role.
func (r *Replica) Role() Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role
}

// Applied returns the apply watermark: all records with LSN below it
// have been applied.
func (r *Replica) Applied() wal.LSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// AppliedCount returns how many update records were applied.
func (r *Replica) AppliedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Apply applies one shipped record. Records at or below the watermark
// are skipped (idempotent re-delivery).
func (r *Replica) Apply(rec *wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.LSN < r.applied {
		return nil
	}
	end := rec.End
	if end == 0 {
		end = rec.LSN + 1
	}
	if rec.Type == wal.RecUpdate {
		buf := make([]byte, storage.PageSize)
		// Grow the replica store to cover the page if needed.
		for storage.PageID(r.store.NumPages()) < rec.PageID {
			if _, err := r.store.Allocate(); err != nil {
				return err
			}
		}
		if err := r.store.ReadPage(rec.PageID, buf); err != nil {
			return err
		}
		p := storage.WrapPage(rec.PageID, buf)
		rec.Redo(p)
		if err := r.store.WritePage(rec.PageID, p.Data); err != nil {
			return err
		}
		r.count++
	}
	r.applied = end
	return nil
}

// Promote switches the replica to primary role (failover).
func (r *Replica) Promote() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.role = RolePrimary
}

// Shipper streams a primary's WAL to registered replicas. Shipping is
// pull-based and explicit (Ship drains new records); a background
// pusher can wrap Ship on a ticker.
type Shipper struct {
	log *wal.Log

	mu       sync.Mutex
	replicas []*Replica
	shipped  wal.LSN
	stopped  bool
}

// NewShipper creates a shipper reading from the primary's log.
func NewShipper(log *wal.Log) *Shipper {
	return &Shipper{log: log}
}

// Attach registers a replica.
func (s *Shipper) Attach(r *Replica) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replicas = append(s.replicas, r)
}

// Detach removes a replica by name.
func (s *Shipper) Detach(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.replicas {
		if r.name == name {
			s.replicas = append(s.replicas[:i], s.replicas[i+1:]...)
			return
		}
	}
}

// Replicas returns the attached replica names.
func (s *Shipper) Replicas() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = r.name
	}
	return out
}

// Ship drains all durable records beyond the ship watermark to every
// replica, returning how many records were shipped.
func (s *Shipper) Ship() (int, error) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return 0, ErrStopped
	}
	from := s.shipped
	replicas := append([]*Replica(nil), s.replicas...)
	s.mu.Unlock()

	n := 0
	var end wal.LSN
	err := s.log.Iterate(from, func(rec *wal.Record) error {
		for _, r := range replicas {
			if err := r.Apply(rec); err != nil {
				return fmt.Errorf("replicate: applying to %s: %w", r.name, err)
			}
		}
		n++
		end = rec.End
		return nil
	})
	if err != nil {
		if errors.Is(err, wal.ErrSegmentGone) {
			// A checkpoint truncated the segment holding our resume
			// point (or records past it) while we were reading: the gap
			// is permanent, so tailing cannot continue. Both sentinels
			// stay matchable — ErrSegmentGone names the race,
			// ErrSnapshotNeeded names the cure.
			return n, fmt.Errorf("%w: %w", ErrSnapshotNeeded, err)
		}
		return n, err
	}
	if n > 0 {
		s.mu.Lock()
		if end > s.shipped {
			s.shipped = end
		}
		s.mu.Unlock()
	}
	return n, nil
}

// Lag returns how many bytes of durable log a replica has not applied.
func (s *Shipper) Lag(r *Replica) int64 {
	return int64(s.log.DurableBoundary()) - int64(r.Applied())
}

// Shipped returns the ship watermark: every record below it has been
// delivered to all replicas attached at ship time. Install it as the
// WAL's retention hook (wal.Log.SetRetention / DB.SetLogRetention) so
// checkpoint truncation never deletes segments this shipper still has
// to read — a lagging replica then resumes from its watermark instead
// of failing with ErrSegmentGone and resynchronising from scratch.
func (s *Shipper) Shipped() wal.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shipped
}

// Stop halts shipping.
func (s *Shipper) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
}
