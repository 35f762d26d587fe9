package txn

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// cloneMemDevice copies a device's bytes into a fresh MemDevice — a
// snapshot of the durable state at one instant.
func cloneMemDevice(t *testing.T, dev storage.Device) *storage.MemDevice {
	t.Helper()
	size, err := dev.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := dev.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	out := storage.NewMemDevice()
	if _, err := out.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFreedPagesReclaimedAfterCrash: dropping a file frees its page
// chain; the free markings are WAL-logged under a lazy system
// transaction. A crash that loses every eager allocator write (the
// whole drop never reached the data device) must still reclaim the
// pages: redo replays the directory update and the free markings, and
// the free-list rebuild relinks them — the ROADMAP "crash leaks freed
// pages" item.
func TestFreedPagesReclaimedAfterCrash(t *testing.T) {
	dev := storage.NewMemDevice()
	disk, err := storage.OpenDisk(dev)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(disk, 16, buffer.NewLRU())
	fm, err := storage.OpenFileManager(pool)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenDir(wal.NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetBeforeEvict(l.BeforeEvict())
	m := NewManager(l, pool)
	fm.SetLogger(m.PageLogger())

	if err := fm.Create("doomed"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fm.AppendPage("doomed", storage.PageTypeHeap); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	// The durable pre-drop state: directory lists the file, no frees.
	snap := cloneMemDevice(t, dev)

	if err := fm.Drop("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}

	// Crash: every post-snapshot data-device write is lost — the
	// directory rewrite, the free-page markings, the allocator's
	// free-list links and the metadata page. Only the WAL survived.
	disk2, err := storage.OpenDisk(snap, storage.WithMetaSalvage(true))
	if err != nil {
		t.Fatal(err)
	}
	st, err := wal.Recover(l, disk2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Changed() {
		t.Fatalf("recovery repaired nothing: %+v", st)
	}
	reclaimed, err := disk2.RebuildFreeList()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed < 3 {
		t.Fatalf("reclaimed %d pages, want at least the 3 chain pages", reclaimed)
	}
	free, err := disk2.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if free != reclaimed {
		t.Fatalf("free list length %d != reclaimed %d", free, reclaimed)
	}

	// The recovered directory no longer lists the file, and the
	// allocator reuses a reclaimed page instead of growing the store.
	pool2 := buffer.New(disk2, 16, buffer.NewLRU())
	fm2, err := storage.OpenFileManager(pool2)
	if err != nil {
		t.Fatal(err)
	}
	if fm2.Exists("doomed") {
		t.Fatal("dropped file resurrected")
	}
	grown := disk2.NumPages()
	id, err := disk2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(id) > grown {
		t.Fatalf("allocator grew the store to page %d instead of reusing a reclaimed page", id)
	}
}

// TestAllocatorRefusesCorruptFreeHead: when a crash persisted the
// free-list head pointer but not the freed page's marking, Allocate
// must abandon the list (leak) rather than pop a live page and
// double-allocate it.
func TestAllocatorRefusesCorruptFreeHead(t *testing.T) {
	dev := storage.NewMemDevice()
	disk, err := storage.OpenDisk(dev)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := disk.Allocate()
	b, _ := disk.Allocate()
	if err := disk.Deallocate(a); err != nil {
		t.Fatal(err)
	}
	// Simulate the reordered crash: the head points at page a, but page
	// a's durable image is a live heap page again (its free marking was
	// lost and the page content restored by recovery).
	live := storage.NewPage(a, storage.PageTypeHeap)
	live.SetNext(b) // a stale chain pointer into live data
	live.UpdateChecksum()
	if _, err := dev.WriteAt(live.Data, int64(a)*storage.PageSize); err != nil {
		t.Fatal(err)
	}

	id, err := disk.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id == a || id == b {
		t.Fatalf("allocator handed out live page %d from a corrupt free list", id)
	}
	// The list was abandoned: a second allocation extends the store.
	id2, err := disk.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id2 == a || id2 == b || id2 == id {
		t.Fatalf("second allocation returned %d", id2)
	}
}
