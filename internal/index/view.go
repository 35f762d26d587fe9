package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/access"
	"repro/internal/storage"
)

// --- node pages ---------------------------------------------------------

// A node page is a slot directory. Its payload holds a fixed header, an
// array of u16 slots in key order growing up from the header, and cells
// growing down from the end of the payload (leaf sibling links use the
// page header next/prev fields):
//
//	u8 kind | u16 n | u16 cellStart | u16 frag | (internal: u64 child0) | n × u16 slot
//	... contiguous free space ...
//	cells, from cellStart to the end: u16 len | key (| u64 child)
//
// kind is 1 for a leaf and 0 for an internal node. Slot i holds the
// payload offset of entry i's cell; an internal cell carries its key's
// right-hand child. frag counts the bytes of dead cells at or above
// cellStart, left behind by remove and truncate; an insert that does not
// fit in the contiguous free space compacts them away first. An entry
// costs its key plus four bytes (slot and length), and eight more in an
// internal node.
const (
	nodeCountOff     = 1
	nodeCellStartOff = 3
	nodeFragOff      = 5
	nodeChild0Off    = 7
	leafSlotsOff     = 7  // leaf header size
	internalSlotsOff = 15 // internal header size, child0 included
)

// maxNodeEntries bounds the entries of one node page: the smallest entry
// is a slot, a length prefix and the 12-byte terminator-and-RID suffix
// every composite key ends in.
const maxNodeEntries = storage.PayloadSize / 16

// view is the one representation of a latched node page. parse checks
// the header alone, in constant time: the count, the end of the slot
// array against cellStart, and frag against the cell area. Each slot and
// length is bounds-checked when an accessor reads it, and a bad one is
// ErrCorrupt. Keys and child ids are slices and loads of the frame
// itself, never copies. format, insert, remove, appendFrom, truncate and
// repoint edit the page in place and keep the view in step; on a
// latched frame they run only inside BTree.write's logged mutation. A
// view is a few words, so it lives on its caller's stack and a latch
// costs no heap allocation.
type view struct {
	pl         []byte
	next, prev storage.PageID
	n          int // entries
	cellStart  int // lowest cell byte
	frag       int // dead cell bytes at or above cellStart
	leaf       bool
}

// corrupt reports a layout fault of the page.
func (v *view) corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// slots returns the payload offset of slot 0: the header size.
func (v *view) slots() int {
	if v.leaf {
		return leafSlotsOff
	}
	return internalSlotsOff
}

// format lays out an empty node on p, without sibling links, and points
// v at it.
func (v *view) format(p *storage.Page, leaf bool, child0 storage.PageID) {
	p.SetType(storage.PageTypeIndex)
	p.SetNext(storage.InvalidPageID)
	p.SetPrev(storage.InvalidPageID)
	pl := p.Payload()
	pl[0] = 1
	if !leaf {
		pl[0] = 0
		binary.LittleEndian.PutUint64(pl[nodeChild0Off:], uint64(child0))
	}
	v.pl, v.leaf, v.next, v.prev = pl, leaf, storage.InvalidPageID, storage.InvalidPageID
	v.n, v.cellStart, v.frag = 0, len(pl), 0
	v.putHeader()
}

// putHeader writes n, cellStart and frag back to the page.
func (v *view) putHeader() {
	binary.LittleEndian.PutUint16(v.pl[nodeCountOff:], uint16(v.n))
	binary.LittleEndian.PutUint16(v.pl[nodeCellStartOff:], uint16(v.cellStart))
	binary.LittleEndian.PutUint16(v.pl[nodeFragOff:], uint16(v.frag))
}

// parse reads p's header into v. A kind other than leaf or internal, a
// count above maxNodeEntries, a slot array that runs into the cells, or
// a frag larger than the cell area is ErrCorrupt.
func (v *view) parse(p *storage.Page) error {
	pl := p.Payload()
	v.pl, v.leaf = pl, pl[0] == 1
	v.next, v.prev = p.Next(), p.Prev()
	v.n = int(binary.LittleEndian.Uint16(pl[nodeCountOff:]))
	v.cellStart = int(binary.LittleEndian.Uint16(pl[nodeCellStartOff:]))
	v.frag = int(binary.LittleEndian.Uint16(pl[nodeFragOff:]))
	switch {
	case pl[0] > 1:
		return v.corrupt("page %d: node kind %d", p.ID, pl[0])
	case v.n > maxNodeEntries:
		return v.corrupt("page %d: %d entries", p.ID, v.n)
	case v.slotEnd() > v.cellStart || v.cellStart > len(pl):
		return v.corrupt("page %d: %d slots past cell start %d", p.ID, v.n, v.cellStart)
	case v.frag > len(pl)-v.cellStart:
		return v.corrupt("page %d: frag %d past cell start %d", p.ID, v.frag, v.cellStart)
	}
	return nil
}

// slotEnd returns the payload offset one past the last slot.
func (v *view) slotEnd() int { return v.slots() + 2*v.n }

// free returns the bytes an insert may use, compaction included.
func (v *view) free() int { return v.cellStart - v.slotEnd() + v.frag }

// cellWidth returns the cell bytes of an entry with a klen-byte key.
func (v *view) cellWidth(klen int) int {
	if v.leaf {
		return 2 + klen
	}
	return 2 + klen + 8
}

// fits reports whether an entry with a klen-byte key fits, slot included.
func (v *view) fits(klen int) bool {
	return v.n < maxNodeEntries && 2+v.cellWidth(klen) <= v.free()
}

// cell returns the offset and width of entry i's cell (0 <= i < n),
// bounds-checking its slot and its length.
func (v *view) cell(i int) (int, int, error) {
	s := int(binary.LittleEndian.Uint16(v.pl[v.slots()+2*i:]))
	if s < v.cellStart || s+2 > len(v.pl) {
		return 0, 0, v.corrupt("slot %d points at %d", i, s)
	}
	w := v.cellWidth(int(binary.LittleEndian.Uint16(v.pl[s:])))
	if s+w > len(v.pl) {
		return 0, 0, v.corrupt("cell %d at %d runs %d bytes past the payload", i, s, s+w-len(v.pl))
	}
	return s, w, nil
}

// key returns entry i's key as a capped slice of the frame: valid only
// while the latch is held, and written through only by an edit.
func (v *view) key(i int) ([]byte, error) {
	s, w, err := v.cell(i)
	if err != nil {
		return nil, err
	}
	e := s + w
	if !v.leaf {
		e -= 8
	}
	return v.pl[s+2 : e : e], nil
}

// child returns the id of child i of an internal node (0 <= i <= n).
func (v *view) child(i int) (storage.PageID, error) {
	if i == 0 {
		return storage.PageID(binary.LittleEndian.Uint64(v.pl[nodeChild0Off:])), nil
	}
	s, w, err := v.cell(i - 1)
	if err != nil {
		return storage.InvalidPageID, err
	}
	return storage.PageID(binary.LittleEndian.Uint64(v.pl[s+w-8:])), nil
}

// search returns the first position whose key is >= ck, or > ck when
// after is set.
func (v *view) search(ck []byte, after bool) (int, error) {
	lo, hi := 0, v.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		k, err := v.key(m)
		if err != nil {
			return 0, err
		}
		if c := bytes.Compare(k, ck); c < 0 || (after && c == 0) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, nil
}

// find returns the position ck has, or would be inserted at, and
// whether the entry there is exactly ck.
func (v *view) find(ck []byte) (int, bool, error) {
	pos, err := v.search(ck, false)
	if err != nil || pos == v.n {
		return pos, false, err
	}
	k, err := v.key(pos)
	return pos, err == nil && bytes.Equal(k, ck), err
}

// route returns the index and id of the child of an internal node whose
// subtree covers ck (the leftmost child for nil).
func (v *view) route(ck []byte) (int, storage.PageID, error) {
	i := 0
	if ck != nil {
		var err error
		if i, err = v.search(ck, true); err != nil {
			return 0, storage.InvalidPageID, err
		}
	}
	id, err := v.child(i)
	return i, id, err
}

// children copies out an internal node's child ids (nil for a leaf).
func (v *view) children() ([]storage.PageID, error) {
	if v.leaf {
		return nil, nil
	}
	ids := make([]storage.PageID, v.n+1)
	for i := range ids {
		id, err := v.child(i)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// alloc reserves a w-byte cell for a new entry i, shifting slots i..n-1
// up by one, and returns the cell's offset for the caller to fill. An
// entry that would overflow the payload is ErrCorrupt, and nothing is
// written; one that fits only with the dead cells reclaimed compacts
// the page first.
func (v *view) alloc(i, w int) (int, error) {
	if v.n == maxNodeEntries || 2+w > v.free() {
		return 0, v.corrupt("node overflow (%d bytes into %d free)", 2+w, v.free())
	}
	if 2+w > v.cellStart-v.slotEnd() {
		if err := v.compact(); err != nil {
			return 0, err
		}
	}
	v.cellStart -= w
	at := v.slots() + 2*i
	copy(v.pl[at+2:], v.pl[at:v.slotEnd()])
	binary.LittleEndian.PutUint16(v.pl[at:], uint16(v.cellStart))
	v.n++
	v.putHeader()
	return v.cellStart, nil
}

// insert writes ck (with child, its right-hand child id, in an internal
// node) as entry i.
func (v *view) insert(i int, ck []byte, child storage.PageID) error {
	s, err := v.alloc(i, v.cellWidth(len(ck)))
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(v.pl[s:], uint16(len(ck)))
	copy(v.pl[s+2:], ck)
	if !v.leaf {
		binary.LittleEndian.PutUint64(v.pl[s+2+len(ck):], uint64(child))
	}
	return nil
}

// drop accounts for the dead cell [s, s+w): the lowest cell simply
// raises cellStart, any other adds to frag.
func (v *view) drop(s, w int) {
	if s == v.cellStart {
		v.cellStart += w
	} else {
		v.frag += w
	}
}

// remove deletes entry i (with its right-hand child). Only the slot
// array moves; the cell's bytes stay behind as dead space.
func (v *view) remove(i int) error {
	s, w, err := v.cell(i)
	if err != nil {
		return err
	}
	v.drop(s, w)
	at := v.slots() + 2*i
	copy(v.pl[at:], v.pl[at+2:v.slotEnd()])
	v.n--
	v.putHeader()
	return nil
}

// appendFrom appends entries [i, src.n) of src, a node of the same kind,
// copying each cell whole.
func (v *view) appendFrom(src *view, i int) error {
	for j := i; j < src.n; j++ {
		s, w, err := src.cell(j)
		if err != nil {
			return err
		}
		d, err := v.alloc(v.n, w)
		if err != nil {
			return err
		}
		copy(v.pl[d:d+w], src.pl[s:s+w])
	}
	return nil
}

// truncate drops the entries from i up; their cells become dead space.
// Dropping from the last entry down lets cells packed in entry order
// (an ascending fill) go back to the free space without any frag.
func (v *view) truncate(i int) error {
	for j := v.n - 1; j >= i; j-- {
		s, w, err := v.cell(j)
		if err != nil {
			return err
		}
		v.drop(s, w)
	}
	v.n = i
	v.putHeader()
	return nil
}

// compact slides the live cells up against the end of the payload,
// highest first, so cells already packed there do not move, and clears
// frag. Every cell is checked before any byte moves: on ErrCorrupt the
// page is unchanged.
func (v *view) compact() error {
	type span struct{ slot, s, w int }
	cells := make([]span, v.n)
	total := 0
	for i := range cells {
		s, w, err := v.cell(i)
		if err != nil {
			return err
		}
		cells[i] = span{i, s, w}
		total += w
	}
	if v.slotEnd()+total > len(v.pl) {
		return v.corrupt("live cells (%d bytes) overlap", total)
	}
	slices.SortFunc(cells, func(a, b span) int { return b.s - a.s })
	end := len(v.pl)
	for _, c := range cells {
		end -= c.w
		if end != c.s {
			copy(v.pl[end:end+c.w], v.pl[c.s:c.s+c.w])
			binary.LittleEndian.PutUint16(v.pl[v.slots()+2*c.slot:], uint16(end))
		}
	}
	v.cellStart, v.frag = end, 0
	v.putHeader()
	return nil
}

// repoint overwrites entry i's fixed-width RID suffix with rid.
func (v *view) repoint(i int, rid access.RID) error {
	k, err := v.key(i)
	if err != nil {
		return err
	}
	if len(k) < 10 {
		return v.corrupt("key %d is %d bytes, shorter than a RID", i, len(k))
	}
	binary.BigEndian.PutUint64(k[len(k)-10:], uint64(rid.Page))
	binary.BigEndian.PutUint16(k[len(k)-2:], rid.Slot)
	return nil
}

// safeFor reports whether the node can absorb an insert of ck: a leaf
// the key itself, an internal node any separator a child split could
// push into it (separator length is bounded by MaxKeySize).
func (v *view) safeFor(ck []byte) bool {
	if v.leaf {
		return v.fits(len(ck))
	}
	return v.fits(MaxKeySize)
}
