package storage

import (
	"errors"
	"io"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestMemDeviceReadWrite(t *testing.T) {
	d := NewMemDevice()
	if _, err := d.WriteAt([]byte("hello"), 10); err != nil {
		t.Fatal(err)
	}
	size, err := d.Size()
	if err != nil || size != 15 {
		t.Fatalf("size = %d, %v", size, err)
	}
	buf := make([]byte, 5)
	if _, err := d.ReadAt(buf, 10); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
	// Read past end yields EOF.
	if _, err := d.ReadAt(buf, 100); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v", err)
	}
	// Negative offsets rejected.
	if _, err := d.ReadAt(buf, -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.WriteAt(buf, -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if err := d.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if size, _ := d.Size(); size != 5 {
		t.Fatalf("size after truncate = %d", size)
	}
	if err := d.Truncate(20); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestMemDeviceFailWrites(t *testing.T) {
	d := NewMemDevice()
	d.SetFailWrites(true)
	if _, err := d.WriteAt([]byte("x"), 0); err == nil {
		t.Fatal("want injected failure")
	}
	d.SetFailWrites(false)
	if _, err := d.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.db")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("persisted"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal("double close must be fine")
	}
	d2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	buf := make([]byte, 9)
	if _, err := d2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "persisted" {
		t.Fatalf("read %q", buf)
	}
}

func TestPageHeaderAccessors(t *testing.T) {
	p := NewPage(7, PageTypeHeap)
	if p.Type() != PageTypeHeap || p.ID != 7 {
		t.Fatal("type/id")
	}
	p.SetFlags(0xAB)
	p.SetLSN(123456789)
	p.SetNext(42)
	p.SetPrev(41)
	if p.Flags() != 0xAB || p.LSN() != 123456789 || p.Next() != 42 || p.Prev() != 41 {
		t.Fatal("header round trip failed")
	}
	if len(p.Payload()) != PayloadSize {
		t.Fatalf("payload size = %d", len(p.Payload()))
	}
	p.Payload()[0] = 0xFF
	p.UpdateChecksum()
	if !p.VerifyChecksum() {
		t.Fatal("checksum must verify after update")
	}
	p.Payload()[1] = 0xEE
	if p.VerifyChecksum() {
		t.Fatal("checksum must fail after mutation")
	}
}

func TestWrapPagePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	WrapPage(1, make([]byte, 100))
}

func TestDiskAllocateReadWrite(t *testing.T) {
	d, err := OpenDisk(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first page id = %d", id)
	}
	p := NewPage(id, PageTypeHeap)
	copy(p.Payload(), "payload")
	if err := d.WritePage(id, p.Data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := WrapPage(id, buf)
	if got.Type() != PageTypeHeap || string(got.Payload()[:7]) != "payload" {
		t.Fatal("page content lost")
	}
	if d.NumPages() != 1 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
}

func TestDiskBoundsAndSizes(t *testing.T) {
	d, _ := OpenDisk(NewMemDevice())
	id, _ := d.Allocate()
	if err := d.ReadPage(id, make([]byte, 10)); err == nil {
		t.Fatal("short buffer must fail")
	}
	if err := d.WritePage(id, make([]byte, 10)); err == nil {
		t.Fatal("short buffer must fail")
	}
	if err := d.ReadPage(99, make([]byte, PageSize)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if err := d.ReadPage(InvalidPageID, make([]byte, PageSize)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("meta page must be unreachable: %v", err)
	}
}

func TestDiskFreeListReuse(t *testing.T) {
	d, _ := OpenDisk(NewMemDevice())
	a, _ := d.Allocate()
	b, _ := d.Allocate()
	c, _ := d.Allocate()
	_ = c
	if err := d.Deallocate(b); err != nil {
		t.Fatal(err)
	}
	if err := d.Deallocate(a); err != nil {
		t.Fatal(err)
	}
	free, err := d.FreePages()
	if err != nil || free != 2 {
		t.Fatalf("free = %d, %v", free, err)
	}
	// LIFO reuse: a then b.
	r1, _ := d.Allocate()
	r2, _ := d.Allocate()
	if r1 != a || r2 != b {
		t.Fatalf("reuse = %d,%d want %d,%d", r1, r2, a, b)
	}
	if d.NumPages() != 3 {
		t.Fatalf("NumPages = %d (ids stay dense)", d.NumPages())
	}
	// Reused pages come back zeroed.
	buf := make([]byte, PageSize)
	if err := d.ReadPage(r1, buf); err != nil {
		t.Fatal(err)
	}
	for _, bt := range WrapPage(r1, buf).Payload() {
		if bt != 0 {
			t.Fatal("reallocated page not zeroed")
		}
	}
}

func TestDiskPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.db")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dev)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := d.Allocate()
	b, _ := d.Allocate()
	p := NewPage(a, PageTypeHeap)
	copy(p.Payload(), "durable")
	if err := d.WritePage(a, p.Data); err != nil {
		t.Fatal(err)
	}
	if err := d.Deallocate(b); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	dev2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dev2)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 2 {
		t.Fatalf("NumPages after reopen = %d", d2.NumPages())
	}
	buf := make([]byte, PageSize)
	if err := d2.ReadPage(a, buf); err != nil {
		t.Fatal(err)
	}
	if string(WrapPage(a, buf).Payload()[:7]) != "durable" {
		t.Fatal("content lost across reopen")
	}
	// Free list survived: b is reused first.
	if id, _ := d2.Allocate(); id != b {
		t.Fatalf("reuse after reopen = %d, want %d", id, b)
	}
}

func TestDiskChecksumDetection(t *testing.T) {
	dev := NewMemDevice()
	d, _ := OpenDisk(dev)
	id, _ := d.Allocate()
	p := NewPage(id, PageTypeHeap)
	copy(p.Payload(), "good")
	if err := d.WritePage(id, p.Data); err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte behind the disk manager's back.
	if _, err := dev.WriteAt([]byte{0xFF}, int64(id)*PageSize+HeaderSize+1); err != nil {
		t.Fatal(err)
	}
	err := d.ReadPage(id, make([]byte, PageSize))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestOpenDiskRejectsGarbage(t *testing.T) {
	dev := NewMemDevice()
	if _, err := dev.WriteAt(make([]byte, PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt([]byte("garbage!"), HeaderSize); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dev); !errors.Is(err, ErrBadMeta) {
		t.Fatal("garbage device must be rejected")
	}
}

// Property: data written to any allocated page reads back identically,
// regardless of interleaved allocations.
func TestDiskReadBackQuick(t *testing.T) {
	d, _ := OpenDisk(NewMemDevice())
	f := func(chunks [][]byte) bool {
		ids := make([]PageID, len(chunks))
		for i, c := range chunks {
			id, err := d.Allocate()
			if err != nil {
				return false
			}
			ids[i] = id
			p := NewPage(id, PageTypeRaw)
			copy(p.Payload(), c)
			if err := d.WritePage(id, p.Data); err != nil {
				return false
			}
		}
		buf := make([]byte, PageSize)
		for i, c := range chunks {
			if err := d.ReadPage(ids[i], buf); err != nil {
				return false
			}
			got := WrapPage(ids[i], buf).Payload()
			n := min(len(c), PayloadSize)
			for j := 0; j < n; j++ {
				if got[j] != c[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
