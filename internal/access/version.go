package access

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Version-chained records (MVCC).
//
// A versioned heap cell is an ordinary record prefixed with a fixed
// 20-byte version header:
//
//	u64 begin | u64 prevPage | u16 prevSlot | u16 flags | record...
//
// begin is either a commit timestamp (the version is committed and
// visible to snapshots reading at or above it) or, while the writing
// transaction is still in flight, VersionMark|txnID — the mark bit
// keeps uncommitted versions above every real timestamp, so the
// visibility test is a single comparison. prev links to the version
// this one superseded (InvalidPageID = no predecessor); chains run
// newest-to-oldest, and begin timestamps strictly decrease along a
// chain. flags bit 0 marks a tombstone: a deletion recorded as a
// version so snapshot readers older than the delete still see the
// value below it.
const (
	// VersionHdrSize is the fixed header length prepended to a record.
	VersionHdrSize = 20
	// VersionMark flags an uncommitted begin field: the low 63 bits
	// are the writing transaction's id, not a timestamp. Commit stamps
	// the real timestamp over it; rollback removes the version.
	VersionMark uint64 = 1 << 63
	// VersionTombstone (flags bit 0) marks a deletion version.
	VersionTombstone uint16 = 1

	// VersionBeginOff / VersionPrevOff locate the stampable header
	// fields for StampBytes: commit stamps 8 bytes of begin at
	// VersionBeginOff; the vacuum severs a chain by stamping 10 bytes
	// (page+slot) of prev at VersionPrevOff.
	VersionBeginOff = 0
	VersionPrevOff  = 8
)

// ErrBadVersion is returned for cells too short to carry a header.
var ErrBadVersion = errors.New("access: short version cell")

// VersionMeta is a decoded version header.
type VersionMeta struct {
	Begin uint64
	Prev  RID
	Flags uint16
}

// Committed reports whether the version carries a real commit
// timestamp (its writer's commit record is durable, or being forced).
func (m VersionMeta) Committed() bool { return m.Begin&VersionMark == 0 }

// Tombstone reports whether the version records a deletion.
func (m VersionMeta) Tombstone() bool { return m.Flags&VersionTombstone != 0 }

// HasPrev reports whether the version links to a predecessor.
func (m VersionMeta) HasPrev() bool { return m.Prev.Page != storage.InvalidPageID }

// VisibleAt reports whether a snapshot reading at readTS sees this
// version: committed, at or below the read timestamp.
func (m VersionMeta) VisibleAt(readTS uint64) bool {
	return m.Committed() && m.Begin <= readTS
}

// EncodeVersion prepends a version header to rec.
func EncodeVersion(m VersionMeta, rec []byte) []byte {
	out := make([]byte, VersionHdrSize+len(rec))
	binary.LittleEndian.PutUint64(out[VersionBeginOff:], m.Begin)
	binary.LittleEndian.PutUint64(out[VersionPrevOff:], uint64(m.Prev.Page))
	binary.LittleEndian.PutUint16(out[VersionPrevOff+8:], m.Prev.Slot)
	binary.LittleEndian.PutUint16(out[18:], m.Flags)
	copy(out[VersionHdrSize:], rec)
	return out
}

// EncodePrevRID serialises a predecessor link in the header's wire
// form (u64 page | u16 slot) — the byte string StampBytes writes at
// VersionPrevOff when the vacuum severs a chain.
func EncodePrevRID(rid RID) []byte {
	var b [10]byte
	binary.LittleEndian.PutUint64(b[:], uint64(rid.Page))
	binary.LittleEndian.PutUint16(b[8:], rid.Slot)
	return b[:]
}

// EncodeBeginTS serialises a begin timestamp in the header's wire form
// — the byte string commit stamping writes at VersionBeginOff.
func EncodeBeginTS(ts uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], ts)
	return b[:]
}

// DecodeVersion splits a versioned cell into its header and record.
// The returned record aliases cell.
func DecodeVersion(cell []byte) (VersionMeta, []byte, error) {
	if len(cell) < VersionHdrSize {
		return VersionMeta{}, nil, fmt.Errorf("%w: %d bytes", ErrBadVersion, len(cell))
	}
	m := VersionMeta{
		Begin: binary.LittleEndian.Uint64(cell[VersionBeginOff:]),
		Prev: RID{
			Page: storage.PageID(binary.LittleEndian.Uint64(cell[VersionPrevOff:])),
			Slot: binary.LittleEndian.Uint16(cell[VersionPrevOff+8:]),
		},
		Flags: binary.LittleEndian.Uint16(cell[18:]),
	}
	return m, cell[VersionHdrSize:], nil
}
