package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"repro/internal/storage"
)

// Buffer manager errors.
var (
	// ErrPoolExhausted is returned when every frame is pinned and a new
	// page must be brought in.
	ErrPoolExhausted = errors.New("buffer: all frames pinned")
	// ErrNotPinned is returned by Unpin on a page that has no pins.
	ErrNotPinned = errors.New("buffer: page not pinned")
	// ErrPinned is returned when freeing a page that is still pinned.
	ErrPinned = errors.New("buffer: page still pinned")
)

// Frame is a pinned page in the buffer pool. The Data slice aliases the
// pool frame; it is valid until Unpin. Callers that modify Data must
// pass dirty=true to Unpin.
type Frame struct {
	ID   storage.PageID
	Data []byte
}

// Page returns a typed page view over the frame.
func (f *Frame) Page() *storage.Page { return storage.WrapPage(f.ID, f.Data) }

// Stats are cumulative buffer pool counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64
}

// HitRate returns hits / (hits+misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Flushes += o.Flushes
}

type frame struct {
	id    storage.PageID
	data  []byte
	pins  int
	dirty bool
	valid bool
	// latch is the page latch: short-term physical mutual exclusion
	// over the frame bytes, acquired AFTER pinning (a pinned page
	// cannot be evicted, so the latch stays bound to the page for the
	// whole hold). Shared for readers, exclusive for mutators; the
	// access layer crabs these latches down B+tree descents.
	latch sync.RWMutex
	// recLSN is the LSN of the first log record that dirtied the page
	// since it was last clean (0 until the first logged mutation, or
	// when the dirt is unlogged). Fuzzy checkpoints snapshot it into
	// the dirty-page table; the minimum recLSN bounds how far back a
	// recovery scan must reach, and therefore how much of the WAL may
	// be truncated.
	recLSN uint64
}

// shard is one lock stripe of the pool: its own mutex, frames, page
// table, free list, replacement-policy instance and counters. Pages map
// to shards by a fixed hash of their PageID, so two operations contend
// only when they touch pages of the same stripe.
type shard struct {
	mu     sync.Mutex
	store  storage.PageStore
	frames []frame
	table  map[storage.PageID]int
	free   []int
	policy *Policy
	stats  Stats

	// beforeEvict, when set, is called with (pageID, pageLSN) before a
	// dirty page is written back; the WAL uses it to enforce
	// write-ahead ordering.
	beforeEvict func(storage.PageID, uint64) error
}

// shardStride rounds each shard up to a whole number of cache lines
// PLUS one extra full line of trailing padding, so that adjacent shards
// in the pool's contiguous shard array never share a line even when the
// allocator hands back a base that is only 8-byte aligned (Go
// guarantees natural alignment, not line alignment): with >= one whole
// line between the end of one shard's live fields and the start of the
// next, no base offset can fold them onto the same line. One stripe's
// mutex traffic must not invalidate its neighbour's (the ROADMAP
// false-sharing audit).
const (
	cacheLine   = 64
	shardStride = (int(unsafe.Sizeof(shard{}))/cacheLine + 2) * cacheLine
)

// paddedShard is a shard padded out to shardStride bytes.
type paddedShard struct {
	shard
	_ [shardStride - int(unsafe.Sizeof(shard{}))]byte
}

// ShardStride returns the per-shard footprint in bytes of the pool's
// contiguous shard array (a whole multiple of the cache line), for
// benchmarks that record the stripe layout.
func ShardStride() int { return shardStride }

// Manager is the buffer manager service: a bounded cache of page
// frames over a storage.PageStore, partitioned into lock-striped
// shards so that independent pages can be pinned and unpinned without
// contending on one global mutex. The stripe array is fixed at
// construction. Manager itself implements storage.PageStore so that
// file managers and access methods can be stacked over it
// transparently (services composed over services).
type Manager struct {
	store  storage.PageStore
	shards []paddedShard
	mask   uint64 // len(shards)-1; shard count is a power of two
}

// Shard-count defaults: one stripe per minFramesPerShard frames, so
// tiny pools (embedded profile, unit tests) keep the exact semantics
// of a single-lock pool while server-scale pools stripe out.
const (
	minFramesPerShard = 64
	maxDefaultShards  = 16
)

// defaultShards picks the shard count for a pool of nframes frames:
// the largest power of two <= nframes/minFramesPerShard, clamped to
// [1, maxDefaultShards].
func defaultShards(nframes int) int {
	s := nframes / minFramesPerShard
	if s < 1 {
		return 1
	}
	if s > maxDefaultShards {
		s = maxDefaultShards
	}
	return floorPow2(s)
}

func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// New creates a buffer manager with nframes frames over store, with an
// automatically chosen shard count. Every stripe starts a fresh LRU
// state; the policy argument is ignored (see NewPolicy).
func New(store storage.PageStore, nframes int, _ *Policy) *Manager {
	if nframes < 1 {
		nframes = 1
	}
	return newManager(store, nframes, defaultShards(nframes))
}

// NewSharded creates a buffer manager with an explicit shard count
// (rounded down to a power of two and clamped to [1, nframes]).
// nshards=1 is the single-mutex baseline.
func NewSharded(store storage.PageStore, nframes, nshards int) *Manager {
	if nframes < 1 {
		nframes = 1
	}
	if nshards < 1 {
		nshards = 1
	}
	if nshards > nframes {
		nshards = nframes
	}
	return newManager(store, nframes, floorPow2(nshards))
}

func newManager(store storage.PageStore, nframes, nshards int) *Manager {
	// One contiguous allocation at a fixed line-multiple stride with a
	// spare line of padding per shard, so stripes never false-share
	// regardless of the base address alignment and the layout is
	// reproducible for the contention benchmarks.
	m := &Manager{store: store, shards: make([]paddedShard, nshards), mask: uint64(nshards - 1)}
	base, rem := nframes/nshards, nframes%nshards
	for i := range m.shards {
		n := base
		if i < rem {
			n++
		}
		s := &m.shards[i].shard
		s.store = store
		s.frames = make([]frame, n)
		s.table = make(map[storage.PageID]int, n)
		s.policy = NewLRU()
		for fi := range s.frames {
			s.frames[fi].data = make([]byte, storage.PageSize)
			s.free = append(s.free, fi)
		}
	}
	return m
}

// shardFor maps a page to its stripe with a Fibonacci hash, so that
// sequentially allocated pages spread across shards.
func (m *Manager) shardFor(id storage.PageID) *shard {
	h := uint64(id) * 0x9e3779b97f4a7c15
	return &m.shards[(h>>32)&m.mask].shard
}

// lockShard returns the stripe owning id, locked.
func (m *Manager) lockShard(id storage.PageID) *shard {
	s := m.shardFor(id)
	s.mu.Lock()
	return s
}

// eachShardLocked runs fn over every stripe, locking each in turn, and
// stops at the first error.
func (m *Manager) eachShardLocked(fn func(s *shard) error) error {
	for i := range m.shards {
		s := &m.shards[i].shard
		s.mu.Lock()
		err := fn(s)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// SetBeforeEvict installs the write-ahead hook invoked before dirty
// write-back.
func (m *Manager) SetBeforeEvict(f func(storage.PageID, uint64) error) {
	_ = m.eachShardLocked(func(s *shard) error {
		s.beforeEvict = f
		return nil
	})
}

// NumShards returns the number of lock stripes.
func (m *Manager) NumShards() int { return len(m.shards) }

// PoolSize returns the total number of frames across all shards.
func (m *Manager) PoolSize() int {
	total := 0
	for i := range m.shards {
		total += len(m.shards[i].frames)
	}
	return total
}

// Stats returns a snapshot of the pool counters, aggregated over all
// shards.
func (m *Manager) Stats() Stats {
	var agg Stats
	_ = m.eachShardLocked(func(s *shard) error {
		agg.add(s.stats)
		return nil
	})
	return agg
}

// ShardStats returns a per-shard snapshot of the pool counters, for
// monitoring stripe balance.
func (m *Manager) ShardStats() []Stats {
	out := make([]Stats, 0, len(m.shards))
	_ = m.eachShardLocked(func(s *shard) error {
		out = append(out, s.stats)
		return nil
	})
	return out
}

// Pin brings the page into the pool (loading it if absent), increments
// its pin count and returns a frame handle.
func (m *Manager) Pin(id storage.PageID) (*Frame, error) {
	s := m.lockShard(id)
	defer s.mu.Unlock()
	if fi, ok := s.table[id]; ok {
		f := &s.frames[fi]
		f.pins++
		s.stats.Hits++
		s.policy.Touched(fi)
		return &Frame{ID: id, Data: f.data}, nil
	}
	s.stats.Misses++
	fi, err := s.obtainFrameLocked()
	if err != nil {
		return nil, err
	}
	f := &s.frames[fi]
	if err := s.store.ReadPage(id, f.data); err != nil {
		s.free = append(s.free, fi)
		return nil, err
	}
	f.id = id
	f.pins = 1
	f.dirty = false
	f.valid = true
	f.recLSN = 0
	s.table[id] = fi
	s.policy.Inserted(fi)
	return &Frame{ID: id, Data: f.data}, nil
}

// NewPage allocates a page in the store and returns it pinned, typed t.
func (m *Manager) NewPage(t storage.PageType) (*Frame, error) {
	id, err := m.store.Allocate()
	if err != nil {
		return nil, err
	}
	s := m.lockShard(id)
	defer s.mu.Unlock()
	fi, err := s.obtainFrameLocked()
	if err != nil {
		return nil, err
	}
	f := &s.frames[fi]
	for i := range f.data {
		f.data[i] = 0
	}
	storage.WrapPage(id, f.data).SetType(t)
	f.id = id
	f.pins = 1
	f.dirty = true
	f.valid = true
	f.recLSN = 0 // the page's first logged mutation sets it at Unpin
	s.table[id] = fi
	s.policy.Inserted(fi)
	return &Frame{ID: id, Data: f.data}, nil
}

// obtainFrameLocked returns a free frame index, evicting if necessary.
func (s *shard) obtainFrameLocked() (int, error) {
	if n := len(s.free); n > 0 {
		fi := s.free[n-1]
		s.free = s.free[:n-1]
		return fi, nil
	}
	fi := s.policy.Victim(func(i int) bool {
		return s.frames[i].valid && s.frames[i].pins == 0
	})
	if fi < 0 {
		return 0, fmt.Errorf("%w (%d frames in shard)", ErrPoolExhausted, len(s.frames))
	}
	f := &s.frames[fi]
	if f.dirty {
		if err := s.flushFrameLocked(fi); err != nil {
			return 0, err
		}
	}
	delete(s.table, f.id)
	s.policy.Removed(fi)
	f.valid = false
	s.stats.Evictions++
	return fi, nil
}

func (s *shard) flushFrameLocked(fi int) error {
	f := &s.frames[fi]
	if s.beforeEvict != nil {
		lsn := storage.WrapPage(f.id, f.data).LSN()
		if err := s.beforeEvict(f.id, lsn); err != nil {
			return fmt.Errorf("buffer: write-ahead hook for page %d: %w", f.id, err)
		}
	}
	if err := s.store.WritePage(f.id, f.data); err != nil {
		return err
	}
	f.dirty = false
	f.recLSN = 0
	s.stats.Flushes++
	return nil
}

// Unpin decrements the pin count, recording whether the caller dirtied
// the page.
func (m *Manager) Unpin(id storage.PageID, dirty bool) error {
	s := m.lockShard(id)
	defer s.mu.Unlock()
	fi, ok := s.table[id]
	if !ok || s.frames[fi].pins == 0 {
		return fmt.Errorf("%w: page %d", ErrNotPinned, id)
	}
	f := &s.frames[fi]
	f.pins--
	if dirty {
		f.dirty = true
		if f.recLSN == 0 {
			// First dirtying since the frame was last clean. The access
			// layer appends exactly one record per pin-mutate-unpin
			// round and stamps its LSN on the page before unpinning, so
			// the page LSN here IS the first record of this dirty
			// episode. Unlogged writers leave the stamp unchanged; a
			// stale (already durable) or zero LSN only makes the
			// checkpoint's recovery-begin computation conservative.
			f.recLSN = storage.WrapPage(f.id, f.data).LSN()
		}
	}
	return nil
}

// PinLatched pins the page and acquires its page latch — shared when
// exclusive is false, exclusive otherwise. The latch is taken outside
// the shard mutex (blocking on a latch must not stall unrelated pages
// of the same stripe); the pin taken first keeps the frame, and
// therefore the latch identity, stable while we wait. Release with
// UnpinLatched.
func (m *Manager) PinLatched(id storage.PageID, exclusive bool) (*Frame, error) {
	f, latch, err := m.pinWithLatch(id)
	if err != nil {
		return nil, err
	}
	if exclusive {
		latch.Lock()
	} else {
		latch.RLock()
	}
	return f, nil
}

// pinWithLatch pins the page and returns its frame latch.
func (m *Manager) pinWithLatch(id storage.PageID) (*Frame, *sync.RWMutex, error) {
	s := m.lockShard(id)
	if fi, ok := s.table[id]; ok {
		f := &s.frames[fi]
		f.pins++
		s.stats.Hits++
		s.policy.Touched(fi)
		latch := &f.latch
		s.mu.Unlock()
		return &Frame{ID: id, Data: f.data}, latch, nil
	}
	s.stats.Misses++
	fi, err := s.obtainFrameLocked()
	if err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	f := &s.frames[fi]
	if err := s.store.ReadPage(id, f.data); err != nil {
		s.free = append(s.free, fi)
		s.mu.Unlock()
		return nil, nil, err
	}
	f.id = id
	f.pins = 1
	f.dirty = false
	f.valid = true
	f.recLSN = 0
	s.table[id] = fi
	s.policy.Inserted(fi)
	latch := &f.latch
	s.mu.Unlock()
	return &Frame{ID: id, Data: f.data}, latch, nil
}

// UnpinLatched releases the page latch acquired by PinLatched (or
// NewPageLatched) and drops the pin, recording whether the caller
// dirtied the page. exclusive must match the acquisition mode.
func (m *Manager) UnpinLatched(id storage.PageID, exclusive, dirty bool) error {
	s := m.lockShard(id)
	defer s.mu.Unlock()
	fi, ok := s.table[id]
	if !ok || s.frames[fi].pins == 0 {
		return fmt.Errorf("%w: page %d", ErrNotPinned, id)
	}
	f := &s.frames[fi]
	// All frame bookkeeping — in particular reading the page LSN for
	// recLSN — happens BEFORE the latch is released: the next latch
	// waiter needs no shard mutex and would otherwise mutate the frame
	// bytes under our read.
	f.pins--
	if dirty {
		f.dirty = true
		if f.recLSN == 0 {
			f.recLSN = storage.WrapPage(f.id, f.data).LSN()
		}
	}
	if exclusive {
		f.latch.Unlock()
	} else {
		f.latch.RUnlock()
	}
	return nil
}

// NewPageLatched allocates a page and returns it pinned AND
// exclusively latched (trivially uncontended: the id is unpublished).
// Release with UnpinLatched(id, true, dirty).
func (m *Manager) NewPageLatched(t storage.PageType) (*Frame, error) {
	f, err := m.NewPage(t)
	if err != nil {
		return nil, err
	}
	s := m.lockShard(f.ID)
	fi, ok := s.table[f.ID]
	if !ok {
		s.mu.Unlock()
		_ = m.Unpin(f.ID, false)
		return nil, fmt.Errorf("buffer: fresh page %d vanished", f.ID)
	}
	latch := &s.frames[fi].latch
	s.mu.Unlock()
	latch.Lock()
	return f, nil
}

// UpdatePage applies fn to the page under an exclusive page latch and
// marks it dirty. It is the race-safe way for code that is not part of
// the latching access methods (the file manager's chain links, physical
// undo) to mutate a page that latching writers may touch concurrently.
func (m *Manager) UpdatePage(id storage.PageID, fn func(p *storage.Page) error) error {
	f, err := m.PinLatched(id, true)
	if err != nil {
		return err
	}
	err = fn(f.Page())
	if uerr := m.UnpinLatched(id, true, err == nil); uerr != nil && err == nil {
		err = uerr
	}
	return err
}

// DirtyPages snapshots the pool's dirty-page table: every resident
// dirty page with its recLSN. Fuzzy checkpoints log it and use the
// minimum recLSN to advance the WAL truncation horizon.
func (m *Manager) DirtyPages() []storage.DirtyPageInfo {
	var out []storage.DirtyPageInfo
	_ = m.eachShardLocked(func(s *shard) error {
		for fi := range s.frames {
			f := &s.frames[fi]
			if f.valid && f.dirty {
				out = append(out, storage.DirtyPageInfo{ID: f.id, RecLSN: f.recLSN})
			}
		}
		return nil
	})
	return out
}

// FlushPages writes back the given pages (skipping any no longer
// resident or already clean) and syncs the underlying store. Fuzzy
// checkpoints flush exactly their dirty-page-table snapshot this way,
// without quiescing writers or touching pages dirtied afterwards.
//
// A pinned dirty page is NOT flushed immediately: the pin holder may be
// mutating the frame bytes outside the shard lock, and persisting a
// half-applied image (with a freshly recomputed checksum) would hand
// recovery a consistent-looking page that matches no logged state.
// Pins in this engine are held only across short pin-mutate-unpin
// rounds, so FlushPages waits the pin out; if a pin outlasts the wait
// budget it returns an error and the checkpoint fails harmlessly (the
// previous manifest stays in force, no truncation happens).
func (m *Manager) FlushPages(ids []storage.PageID) error {
	for _, id := range ids {
		if err := m.flushUnpinned(id); err != nil {
			return err
		}
	}
	return m.store.Sync()
}

// flushUnpinned flushes one page once its pin count drains to zero.
func (m *Manager) flushUnpinned(id storage.PageID) error {
	deadline := time.Now().Add(flushPinWait)
	for attempt := 0; ; attempt++ {
		s := m.lockShard(id)
		fi, ok := s.table[id]
		if !ok || !s.frames[fi].dirty {
			s.mu.Unlock()
			return nil
		}
		if s.frames[fi].pins == 0 {
			err := s.flushFrameLocked(fi)
			s.mu.Unlock()
			return err
		}
		s.mu.Unlock()
		if attempt > 1000 {
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: page %d pinned dirty throughout a checkpoint flush", ErrPinned, id)
			}
			// Long-held pin: back off instead of burning a core.
			time.Sleep(100 * time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
}

// flushPinWait bounds how long FlushPages waits for a pin to drain.
const flushPinWait = 2 * time.Second

// FlushAll writes back every dirty resident page, shard by shard, and
// syncs the store.
func (m *Manager) FlushAll() error {
	err := m.eachShardLocked(func(s *shard) error {
		for fi := range s.frames {
			if s.frames[fi].valid && s.frames[fi].dirty {
				if err := s.flushFrameLocked(fi); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return m.store.Sync()
}

// Resident reports whether a page currently occupies a frame.
func (m *Manager) Resident(id storage.PageID) bool {
	s := m.lockShard(id)
	defer s.mu.Unlock()
	_, ok := s.table[id]
	return ok
}

// PinCount returns the pin count of a resident page (0 if absent).
func (m *Manager) PinCount(id storage.PageID) int {
	s := m.lockShard(id)
	defer s.mu.Unlock()
	if fi, ok := s.table[id]; ok {
		return s.frames[fi].pins
	}
	return 0
}

// --- storage.PageStore implementation over the pool ---

// Allocate implements storage.PageStore.
func (m *Manager) Allocate() (storage.PageID, error) { return m.store.Allocate() }

// Deallocate implements storage.PageStore: the page is dropped from the
// pool (it must be unpinned) and freed in the store.
func (m *Manager) Deallocate(id storage.PageID) error {
	s := m.lockShard(id)
	if fi, ok := s.table[id]; ok {
		if s.frames[fi].pins > 0 {
			s.mu.Unlock()
			return fmt.Errorf("%w: page %d", ErrPinned, id)
		}
		delete(s.table, id)
		s.policy.Removed(fi)
		s.frames[fi].valid = false
		s.frames[fi].dirty = false
		s.frames[fi].recLSN = 0
		s.free = append(s.free, fi)
	}
	s.mu.Unlock()
	return m.store.Deallocate(id)
}

// ReadPage implements storage.PageStore via the pool.
func (m *Manager) ReadPage(id storage.PageID, buf []byte) error {
	f, err := m.Pin(id)
	if err != nil {
		return err
	}
	copy(buf, f.Data)
	return m.Unpin(id, false)
}

// WritePage implements storage.PageStore via the pool (write-back, not
// write-through; call FlushAll for durability).
func (m *Manager) WritePage(id storage.PageID, data []byte) error {
	f, err := m.Pin(id)
	if err != nil {
		return err
	}
	copy(f.Data, data)
	return m.Unpin(id, true)
}

// NumPages implements storage.PageStore.
func (m *Manager) NumPages() uint64 { return m.store.NumPages() }

// Sync implements storage.PageStore by flushing all dirty frames.
func (m *Manager) Sync() error { return m.FlushAll() }
