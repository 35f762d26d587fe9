package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Disk manager errors.
var (
	// ErrBadMeta is returned when the metadata page is corrupt.
	ErrBadMeta = errors.New("storage: corrupt disk metadata")
	// ErrPageFree is returned when accessing a page on the free list.
	ErrPageFree = errors.New("storage: page is free")
	// ErrChecksum is returned when a page fails checksum verification.
	ErrChecksum = errors.New("storage: page checksum mismatch")
)

const diskMagic = 0x5342444d53444b31 // "SBDMSDK1"

// PageStore is the page-granular storage interface shared by the disk
// manager and the buffer manager, so that higher layers (file manager,
// heap files, indexes) can be composed over either — the substitution
// at the heart of the storage service scenario of Section 3.7.
type PageStore interface {
	// Allocate returns a fresh zeroed page.
	Allocate() (PageID, error)
	// Deallocate returns a page to the free list.
	Deallocate(id PageID) error
	// ReadPage fills buf (PageSize bytes) with the page content.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists the page content (PageSize bytes).
	WritePage(id PageID, data []byte) error
	// NumPages returns the total number of pages ever allocated
	// (including freed ones; page ids are dense from 1).
	NumPages() uint64
	// Sync flushes to stable storage.
	Sync() error
}

// PageUpdater is implemented by page stores that can apply a
// read-modify-write mutation to one page atomically with respect to
// concurrent page access (the buffer manager does it under the page
// latch, the disk manager under its mutex). Code outside the latching
// access methods — file-manager chain links, transaction undo — must
// mutate shared pages through it rather than via ReadPage+WritePage,
// which would race with latched writers.
type PageUpdater interface {
	UpdatePage(id PageID, fn func(p *Page) error) error
}

// UpdatePageOn applies fn to the page through the store's PageUpdater
// when available, else via a read-modify-write (single-threaded callers
// only, e.g. recovery).
func UpdatePageOn(store PageStore, id PageID, fn func(p *Page) error) error {
	if u, ok := store.(PageUpdater); ok {
		return u.UpdatePage(id, fn)
	}
	buf := make([]byte, PageSize)
	if err := store.ReadPage(id, buf); err != nil {
		return err
	}
	p := WrapPage(id, buf)
	if err := fn(p); err != nil {
		return err
	}
	return store.WritePage(id, p.Data)
}

// DirtyPageInfo is one dirty-page-table entry reported by a buffering
// PageStore: a resident dirty page and the LSN of the first log record
// that dirtied it since it was last clean (recLSN; 0 when the page was
// dirtied outside the log). Fuzzy checkpoints snapshot these to bound
// the recovery scan and the log-truncation horizon.
type DirtyPageInfo struct {
	ID     PageID
	RecLSN uint64
}

// DiskManager implements PageStore directly over a byte Device: fixed
// size pages, a persistent free list threaded through freed pages, and
// a checksum on every page. It corresponds to the Disk Manager service
// of Figures 5-7.
type DiskManager struct {
	mu        sync.Mutex
	dev       Device
	pageCount uint64 // pages allocated so far, excluding meta page 0
	freeHead  PageID
	closed    bool
	salvage   bool
}

// DiskOption configures a disk manager.
type DiskOption func(*DiskManager)

// WithMetaSalvage makes OpenDisk tolerate a torn or unreadable metadata
// page: instead of failing, the page count is conservatively derived
// from the device size and the free list abandoned (freed pages leak
// rather than risk double allocation). Crash recovery then rebuilds
// page content from the WAL.
func WithMetaSalvage(on bool) DiskOption {
	return func(d *DiskManager) { d.salvage = on }
}

// OpenDisk opens (or initialises) a disk manager on a device.
func OpenDisk(dev Device, opts ...DiskOption) (*DiskManager, error) {
	d := &DiskManager{dev: dev}
	for _, o := range opts {
		o(d)
	}
	size, err := dev.Size()
	if err != nil {
		return nil, err
	}
	if size == 0 {
		// Fresh device: write the meta page.
		if err := d.writeMetaLocked(); err != nil {
			return nil, err
		}
		return d, nil
	}
	meta := make([]byte, PageSize)
	if _, err := dev.ReadAt(meta, 0); err != nil {
		if d.salvage && size >= PageSize {
			return d.salvageMeta(size)
		}
		return nil, fmt.Errorf("storage: reading meta page: %w", err)
	}
	p := WrapPage(0, meta)
	payload := p.Payload()
	if binary.LittleEndian.Uint64(payload) != diskMagic {
		// A bad magic means a foreign or mispointed file, not a torn
		// meta write (page writes are whole-page, so a torn rewrite
		// keeps a valid magic from either the old or new image): fail
		// loudly rather than salvage over someone else's data.
		return nil, fmt.Errorf("%w: bad magic", ErrBadMeta)
	}
	if p.Type() != PageTypeMeta || !p.VerifyChecksum() {
		if d.salvage {
			return d.salvageMeta(size)
		}
		return nil, fmt.Errorf("%w: bad meta header", ErrBadMeta)
	}
	d.pageCount = binary.LittleEndian.Uint64(payload[8:])
	d.freeHead = PageID(binary.LittleEndian.Uint64(payload[16:]))
	// A crash can lose the meta write that recorded device growth;
	// trust the device size for the page count so recovery can reach
	// every page the WAL mentions.
	if d.salvage {
		if fromSize := uint64(size+PageSize-1)/PageSize - 1; fromSize > d.pageCount {
			d.pageCount = fromSize
		}
	}
	return d, nil
}

// salvageMeta reconstructs conservative metadata after a torn meta-page
// write: every page within the device size counts as allocated, the
// free list is dropped, and a fresh meta page is written.
func (d *DiskManager) salvageMeta(size int64) (*DiskManager, error) {
	d.pageCount = uint64(size+PageSize-1)/PageSize - 1
	d.freeHead = InvalidPageID
	if err := d.writeMetaLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

// EnsureAllocated grows the store so that id is a valid page, writing
// zeroed pages for the extension. Recovery uses it when the WAL
// references pages whose allocation never reached the metadata page
// before a crash.
func (d *DiskManager) EnsureAllocated(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if uint64(id) <= d.pageCount {
		return nil
	}
	for d.pageCount < uint64(id) {
		d.pageCount++
		zero := NewPage(PageID(d.pageCount), PageTypeRaw)
		zero.UpdateChecksum()
		if _, err := d.dev.WriteAt(zero.Data, int64(d.pageCount)*PageSize); err != nil {
			return fmt.Errorf("storage: extending to page %d: %w", d.pageCount, err)
		}
	}
	return d.writeMetaLocked()
}

func (d *DiskManager) writeMetaLocked() error {
	p := NewPage(0, PageTypeMeta)
	payload := p.Payload()
	binary.LittleEndian.PutUint64(payload, diskMagic)
	binary.LittleEndian.PutUint64(payload[8:], d.pageCount)
	binary.LittleEndian.PutUint64(payload[16:], uint64(d.freeHead))
	p.UpdateChecksum()
	if _, err := d.dev.WriteAt(p.Data, 0); err != nil {
		return fmt.Errorf("storage: writing meta page: %w", err)
	}
	return nil
}

// Allocate implements PageStore: it pops the free list or extends the
// device, returning a zeroed page.
func (d *DiskManager) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPageID, ErrClosed
	}
	var id PageID
	if d.freeHead != InvalidPageID {
		id = d.freeHead
		buf := make([]byte, PageSize)
		if err := d.readLocked(id, buf, false); err != nil {
			return InvalidPageID, err
		}
		p := WrapPage(id, buf)
		if p.Type() != PageTypeFree || !p.VerifyChecksum() {
			// A crash persisted the head pointer but not the freed
			// page's marking (device writes reorder): following its
			// chain pointer would walk live page chains and hand out
			// in-use pages. Abandon the list — leaked pages are
			// reclaimed by the post-crash free-list rebuild; handing
			// out a live page would corrupt the store.
			d.freeHead = InvalidPageID
			d.pageCount++
			id = PageID(d.pageCount)
		} else {
			d.freeHead = p.Next()
		}
	} else {
		d.pageCount++
		id = PageID(d.pageCount)
	}
	// Hand out a zeroed page of raw type.
	zero := NewPage(id, PageTypeRaw)
	zero.UpdateChecksum()
	if _, err := d.dev.WriteAt(zero.Data, int64(id)*PageSize); err != nil {
		return InvalidPageID, fmt.Errorf("storage: zeroing page %d: %w", id, err)
	}
	if err := d.writeMetaLocked(); err != nil {
		return InvalidPageID, err
	}
	return id, nil
}

// Deallocate implements PageStore: the page is marked free and pushed
// onto the free list.
func (d *DiskManager) Deallocate(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.checkIDLocked(id); err != nil {
		return err
	}
	p := NewPage(id, PageTypeFree)
	p.SetNext(d.freeHead)
	p.UpdateChecksum()
	if _, err := d.dev.WriteAt(p.Data, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: freeing page %d: %w", id, err)
	}
	d.freeHead = id
	return d.writeMetaLocked()
}

// ReadPage implements PageStore.
func (d *DiskManager) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.checkIDLocked(id); err != nil {
		return err
	}
	return d.readLocked(id, buf, true)
}

func (d *DiskManager) readLocked(id PageID, buf []byte, verify bool) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: read buffer must be PageSize, got %d", len(buf))
	}
	if _, err := d.dev.ReadAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: reading page %d: %w", id, err)
	}
	if verify && !WrapPage(id, buf).VerifyChecksum() {
		return fmt.Errorf("%w: page %d", ErrChecksum, id)
	}
	return nil
}

// WritePage implements PageStore. The checksum is refreshed on the way
// out so callers need not remember to do it.
func (d *DiskManager) WritePage(id PageID, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.checkIDLocked(id); err != nil {
		return err
	}
	if len(data) != PageSize {
		return fmt.Errorf("storage: write buffer must be PageSize, got %d", len(data))
	}
	WrapPage(id, data).UpdateChecksum()
	if _, err := d.dev.WriteAt(data, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: writing page %d: %w", id, err)
	}
	return nil
}

// UpdatePage implements PageUpdater: read-modify-write of one page as a
// single atomic step under the disk mutex.
func (d *DiskManager) UpdatePage(id PageID, fn func(p *Page) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.checkIDLocked(id); err != nil {
		return err
	}
	buf := make([]byte, PageSize)
	if err := d.readLocked(id, buf, true); err != nil {
		return err
	}
	p := WrapPage(id, buf)
	if err := fn(p); err != nil {
		return err
	}
	p.UpdateChecksum()
	if _, err := d.dev.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: writing page %d: %w", id, err)
	}
	return nil
}

func (d *DiskManager) checkIDLocked(id PageID) error {
	if id == InvalidPageID || uint64(id) > d.pageCount {
		return fmt.Errorf("%w: page %d (count %d)", ErrOutOfRange, id, d.pageCount)
	}
	return nil
}

// NumPages implements PageStore.
func (d *DiskManager) NumPages() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pageCount
}

// FreePages walks the free list and returns its length (diagnostics).
func (d *DiskManager) FreePages() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	n := 0
	buf := make([]byte, PageSize)
	for id := d.freeHead; id != InvalidPageID; {
		if err := d.readLocked(id, buf, false); err != nil {
			return n, err
		}
		n++
		id = WrapPage(id, buf).Next()
		if n > int(d.pageCount) {
			return n, fmt.Errorf("%w: free list cycle", ErrBadMeta)
		}
	}
	return n, nil
}

// RebuildFreeList rescans every page and rebuilds the persistent free
// list from page types: every page whose durable image is a valid
// free-marked page is relinked, whether or not the crash lost the old
// list's head or chain pointers. Combined with WAL-logged free
// markings (the file manager logs each freed page's transition to the
// free type under a system transaction), this is what turns "a crash
// leaks freed pages" into "recovery reclaims them". Returns the number
// of pages linked.
func (d *DiskManager) RebuildFreeList() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	head := InvalidPageID
	n := 0
	buf := make([]byte, PageSize)
	// Descending scan, so the rebuilt list pops lowest ids first.
	for id := PageID(d.pageCount); id >= 1; id-- {
		if err := d.readLocked(id, buf, false); err != nil {
			continue // unreadable pages cannot be proven free
		}
		p := WrapPage(id, buf)
		if p.Type() != PageTypeFree || !p.VerifyChecksum() {
			continue
		}
		fresh := NewPage(id, PageTypeFree)
		fresh.SetNext(head)
		fresh.UpdateChecksum()
		if _, err := d.dev.WriteAt(fresh.Data, int64(id)*PageSize); err != nil {
			return n, fmt.Errorf("storage: relinking free page %d: %w", id, err)
		}
		head = id
		n++
	}
	d.freeHead = head
	return n, d.writeMetaLocked()
}

// Sync implements PageStore.
func (d *DiskManager) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.dev.Sync()
}

// Close flushes metadata and closes the underlying device.
func (d *DiskManager) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	if err := d.writeMetaLocked(); err != nil {
		return err
	}
	d.closed = true
	return d.dev.Close()
}
