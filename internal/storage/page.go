package storage

import (
	"encoding/binary"
	"hash/crc32"
)

// PageSize is the fixed page size of the storage layer.
const PageSize = 4096

// HeaderSize is the size of the common page header maintained by the
// page manager. The payload area is PageSize-HeaderSize bytes.
const HeaderSize = 32

// PayloadSize is the usable payload capacity of a page.
const PayloadSize = PageSize - HeaderSize

// PageID identifies a page on a disk manager. Page 0 is the disk
// manager's metadata page and is never handed out; InvalidPageID doubles
// as the nil pointer of on-disk page chains.
type PageID uint64

// InvalidPageID is the nil page pointer.
const InvalidPageID PageID = 0

// PageType tags the content of a page so that recovery and diagnostics
// can interpret it.
type PageType uint8

// Page types used across the storage and access layers.
const (
	PageTypeFree      PageType = 0
	PageTypeMeta      PageType = 1
	PageTypeDirectory PageType = 2
	PageTypeHeap      PageType = 3
	PageTypeIndex     PageType = 4
	PageTypeOverflow  PageType = 5
	PageTypeRaw       PageType = 6
)

// Header layout (32 bytes):
//
//	off 0  u8  type
//	off 1  u8  flags
//	off 2  u16 reserved
//	off 4  u32 checksum (crc32c over bytes [8, PageSize))
//	off 8  u64 lsn
//	off 16 u64 next page id
//	off 24 u64 prev page id
const (
	offType     = 0
	offFlags    = 1
	offChecksum = 4
	offLSN      = 8
	offNext     = 16
	offPrev     = 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Page is a typed view over a PageSize byte buffer. It performs no I/O
// itself; the page manager service wraps these accessors with
// read/write operations.
type Page struct {
	ID   PageID
	Data []byte // len == PageSize
}

// NewPage wraps a fresh zeroed buffer as a page of the given type.
func NewPage(id PageID, t PageType) *Page {
	p := &Page{ID: id, Data: make([]byte, PageSize)}
	p.SetType(t)
	return p
}

// WrapPage wraps an existing PageSize buffer. It panics when the buffer
// has the wrong length, which indicates a programming error.
func WrapPage(id PageID, data []byte) *Page {
	if len(data) != PageSize {
		panic("storage: WrapPage buffer must be PageSize")
	}
	return &Page{ID: id, Data: data}
}

// Type returns the page type tag.
func (p *Page) Type() PageType { return PageType(p.Data[offType]) }

// SetType sets the page type tag.
func (p *Page) SetType(t PageType) { p.Data[offType] = byte(t) }

// Flags returns the page flags byte.
func (p *Page) Flags() uint8 { return p.Data[offFlags] }

// SetFlags sets the page flags byte.
func (p *Page) SetFlags(f uint8) { p.Data[offFlags] = f }

// LSN returns the page's last log sequence number (WAL integration).
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.Data[offLSN:]) }

// SetLSN stamps the page with a log sequence number.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.Data[offLSN:], lsn) }

// Next returns the next-page pointer of the page chain.
func (p *Page) Next() PageID { return PageID(binary.LittleEndian.Uint64(p.Data[offNext:])) }

// SetNext sets the next-page pointer.
func (p *Page) SetNext(id PageID) { binary.LittleEndian.PutUint64(p.Data[offNext:], uint64(id)) }

// Prev returns the previous-page pointer of the page chain.
func (p *Page) Prev() PageID { return PageID(binary.LittleEndian.Uint64(p.Data[offPrev:])) }

// SetPrev sets the previous-page pointer.
func (p *Page) SetPrev(id PageID) { binary.LittleEndian.PutUint64(p.Data[offPrev:], uint64(id)) }

// Payload returns the writable payload area beyond the header.
func (p *Page) Payload() []byte { return p.Data[HeaderSize:] }

// UpdateChecksum recomputes and stores the page checksum. It must be
// called before a page is written to a device.
func (p *Page) UpdateChecksum() {
	sum := crc32.Checksum(p.Data[offLSN:], castagnoli)
	binary.LittleEndian.PutUint32(p.Data[offChecksum:], sum)
}

// VerifyChecksum reports whether the stored checksum matches the page
// content. A brand-new zero page verifies (checksum of zeros).
func (p *Page) VerifyChecksum() bool {
	want := binary.LittleEndian.Uint32(p.Data[offChecksum:])
	return want == crc32.Checksum(p.Data[offLSN:], castagnoli)
}

// Checksum returns the stored checksum value.
func (p *Page) Checksum() uint32 { return binary.LittleEndian.Uint32(p.Data[offChecksum:]) }
