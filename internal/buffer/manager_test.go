package buffer

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func newPool(t *testing.T, frames int, policy *Policy) (*Manager, *storage.DiskManager) {
	t.Helper()
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	return New(d, frames, policy), d
}

func allocPages(t *testing.T, d *storage.DiskManager, n int) []storage.PageID {
	t.Helper()
	ids := make([]storage.PageID, n)
	for i := range ids {
		id, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

func TestPinUnpinReadWrite(t *testing.T) {
	m, d := newPool(t, 4, NewLRU())
	ids := allocPages(t, d, 1)
	f, err := m.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Page().Payload(), "buffered")
	if err := m.Unpin(ids[0], true); err != nil {
		t.Fatal(err)
	}
	// Resident read hits the cache.
	f2, err := m.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(f2.Page().Payload()[:8]) != "buffered" {
		t.Fatal("cache lost data")
	}
	if err := m.Unpin(ids[0], false); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
	// Not yet flushed to disk (write-back).
	raw := make([]byte, storage.PageSize)
	if err := d.ReadPage(ids[0], raw); err != nil {
		t.Fatal(err)
	}
	if string(storage.WrapPage(ids[0], raw).Payload()[:8]) == "buffered" {
		t.Fatal("write-back pool must not write through")
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(ids[0], raw); err != nil {
		t.Fatal(err)
	}
	if string(storage.WrapPage(ids[0], raw).Payload()[:8]) != "buffered" {
		t.Fatal("flush lost data")
	}
}

func TestUnpinErrors(t *testing.T) {
	m, d := newPool(t, 2, NewLRU())
	ids := allocPages(t, d, 1)
	if err := m.Unpin(ids[0], false); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("err = %v", err)
	}
	f, _ := m.Pin(ids[0])
	_ = f
	if err := m.Unpin(ids[0], false); err != nil {
		t.Fatal(err)
	}
	if err := m.Unpin(ids[0], false); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("double unpin err = %v", err)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	m, d := newPool(t, 2, NewLRU())
	ids := allocPages(t, d, 3)
	f, _ := m.Pin(ids[0])
	copy(f.Page().Payload(), "dirty0")
	_ = m.Unpin(ids[0], true)
	for _, id := range ids[1:] {
		f, err := m.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = f
		_ = m.Unpin(id, false)
	}
	if m.Resident(ids[0]) {
		t.Fatal("page 0 should have been evicted (LRU)")
	}
	raw := make([]byte, storage.PageSize)
	if err := d.ReadPage(ids[0], raw); err != nil {
		t.Fatal(err)
	}
	if string(storage.WrapPage(ids[0], raw).Payload()[:6]) != "dirty0" {
		t.Fatal("eviction must write back dirty page")
	}
	if st := m.Stats(); st.Evictions == 0 || st.Flushes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolExhaustion(t *testing.T) {
	m, d := newPool(t, 2, NewLRU())
	ids := allocPages(t, d, 3)
	if _, err := m.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pin(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pin(ids[2]); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v", err)
	}
	_ = m.Unpin(ids[0], false)
	if _, err := m.Pin(ids[2]); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestNewPagePinned(t *testing.T) {
	m, _ := newPool(t, 2, NewLRU())
	f, err := m.NewPage(storage.PageTypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	if f.Page().Type() != storage.PageTypeHeap {
		t.Fatal("type not set")
	}
	if m.PinCount(f.ID) != 1 {
		t.Fatalf("pin count = %d", m.PinCount(f.ID))
	}
	if err := m.Unpin(f.ID, true); err != nil {
		t.Fatal(err)
	}
}

func TestDeallocateDropsFrame(t *testing.T) {
	m, d := newPool(t, 2, NewLRU())
	ids := allocPages(t, d, 1)
	f, _ := m.Pin(ids[0])
	_ = f
	if err := m.Deallocate(ids[0]); !errors.Is(err, ErrPinned) {
		t.Fatalf("err = %v", err)
	}
	_ = m.Unpin(ids[0], false)
	if err := m.Deallocate(ids[0]); err != nil {
		t.Fatal(err)
	}
	if m.Resident(ids[0]) {
		t.Fatal("deallocated page still resident")
	}
}

func TestBeforeEvictHookOrdersWrites(t *testing.T) {
	m, d := newPool(t, 1, NewLRU())
	ids := allocPages(t, d, 2)
	var hookCalls []storage.PageID
	m.SetBeforeEvict(func(id storage.PageID, lsn uint64) error {
		hookCalls = append(hookCalls, id)
		return nil
	})
	f, _ := m.Pin(ids[0])
	copy(f.Page().Payload(), "x")
	_ = m.Unpin(ids[0], true)
	// Forcing eviction triggers the hook before write-back.
	if _, err := m.Pin(ids[1]); err != nil {
		t.Fatal(err)
	}
	if len(hookCalls) != 1 || hookCalls[0] != ids[0] {
		t.Fatalf("hook calls = %v", hookCalls)
	}
	_ = m.Unpin(ids[1], false)
	// A failing hook blocks eviction.
	m.SetBeforeEvict(func(id storage.PageID, lsn uint64) error {
		return errors.New("wal not flushed")
	})
	f0, _ := m.Pin(ids[0])
	copy(f0.Page().Payload(), "y")
	_ = m.Unpin(ids[0], true)
	if _, err := m.Pin(ids[1]); err == nil {
		t.Fatal("eviction must fail when hook fails")
	}
}

func TestPageStoreFacade(t *testing.T) {
	m, d := newPool(t, 4, NewLRU())
	id, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, storage.PageSize)
	copy(storage.WrapPage(id, data).Payload(), "facade")
	if err := m.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	if err := m.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(storage.WrapPage(id, buf).Payload()[:6]) != "facade" {
		t.Fatal("facade read lost data")
	}
	if m.NumPages() != d.NumPages() {
		t.Fatal("NumPages must delegate")
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	// After sync the store sees the bytes.
	raw := make([]byte, storage.PageSize)
	if err := d.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	if string(storage.WrapPage(id, raw).Payload()[:6]) != "facade" {
		t.Fatal("sync did not persist")
	}
}

func TestPoliciesBasicVictimOrder(t *testing.T) {
	evictAll := func(int) bool { return true }
	t.Run("lru", func(t *testing.T) {
		p := NewLRU()
		p.Inserted(1)
		p.Inserted(2)
		p.Inserted(3)
		p.Touched(1) // 1 most recent
		if v := p.Victim(evictAll); v != 2 {
			t.Fatalf("victim = %d, want 2", v)
		}
		p.Removed(2)
		if v := p.Victim(evictAll); v != 3 {
			t.Fatalf("victim = %d, want 3", v)
		}
		if v := p.Victim(func(int) bool { return false }); v != -1 {
			t.Fatal("no evictable frame must return -1")
		}
	})
}

func TestNewPolicyByName(t *testing.T) {
	// LRU is the only policy: every name, known or not, yields it.
	for _, name := range []string{"", "lru", "clock", "2q"} {
		p := NewPolicy(name)
		p.Inserted(1)
		p.Inserted(2)
		p.Touched(1)
		if v := p.Victim(func(int) bool { return true }); v != 2 {
			t.Fatalf("NewPolicy(%q) evicts %d first, want LRU's 2", name, v)
		}
	}
}

// Property: under any access pattern, pinned pages are never evicted
// and reads always return what was last written.
func TestBufferCoherenceQuick(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		d, err := storage.OpenDisk(storage.NewMemDevice())
		if err != nil {
			t.Fatal(err)
		}
		m := New(d, 4, NewLRU())
		const npages = 16
		ids := make([]storage.PageID, npages)
		expect := make(map[storage.PageID]byte)
		for i := range ids {
			id, err := d.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
			expect[id] = 0
		}
		f := func(ops []uint16) bool {
			for _, op := range ops {
				id := ids[int(op)%npages]
				write := (op>>8)&1 == 1
				fr, err := m.Pin(id)
				if err != nil {
					return false
				}
				payload := fr.Page().Payload()
				if payload[0] != expect[id] {
					return false
				}
				if write {
					v := byte(op >> 9)
					payload[0] = v
					expect[id] = v
				}
				if err := m.Unpin(id, write); err != nil {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(42))}); err != nil {
			t.Fatal(err)
		}
	})
}
