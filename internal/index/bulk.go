package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Bulk-build errors.
var (
	// ErrTreeNotEmpty is returned by InstallRoot when the live tree
	// gained entries between the caller's emptiness check and the
	// install latch: the prebuilt tree cannot be swapped in and the
	// caller must fall back to the per-key insert path.
	ErrTreeNotEmpty = errors.New("index: tree not empty")
	// ErrUnsorted is returned by BulkBuild for input that is not in
	// strictly increasing composite-key order.
	ErrUnsorted = errors.New("index: bulk items not strictly sorted")
)

// BulkKeyLen returns the composite-key length the tree encodes key to
// (the RID suffix is fixed-width, so the length is rid-independent).
// Bulk loaders validate it against MaxKeySize before paying any page
// writes.
func BulkKeyLen(key []byte) int {
	return len(compositeKey(key, access.RID{}))
}

// BulkItem is one (key, rid) pair for BulkBuild. Items must be sorted
// by key (rid-tiebroken) and — in unique trees — carry distinct keys;
// BulkBuild verifies the resulting composite order.
type BulkItem struct {
	Key []byte
	RID access.RID
}

// Build creates a tree holding items, in any order, in fresh pages:
// BulkBuild's nodes (or one empty root leaf), then the metadata page.
// Each page is written once under tx with nil undo, so a rollback
// restores it physically. pages lists every page allocated, also on
// error, for the caller to free after a rollback. A unique tree rejects
// a repeated key before allocating anything. A nil tx logs nothing.
func Build(tx access.TxnContext, pool *buffer.Manager, log *wal.Log, unique bool, items []BulkItem) (t *BTree, pages []storage.PageID, err error) {
	slices.SortFunc(items, func(a, b BulkItem) int {
		return cmp.Or(bytes.Compare(a.Key, b.Key), cmp.Compare(a.RID.Page, b.RID.Page), cmp.Compare(a.RID.Slot, b.RID.Slot))
	})
	if unique {
		for i := 1; i < len(items); i++ {
			if bytes.Equal(items[i-1].Key, items[i].Key) {
				return nil, nil, fmt.Errorf("%w: %q", ErrDuplicateKey, items[i].Key)
			}
		}
	}
	meta, err := pool.NewPage(storage.PageTypeIndex)
	if err != nil {
		return nil, nil, err
	}
	pages = []storage.PageID{meta.ID}
	if err := pool.Unpin(meta.ID, true); err != nil {
		return nil, pages, err
	}
	t = &BTree{pool: pool, metaID: meta.ID, unique: unique, log: log}
	var root storage.PageID
	if len(items) == 0 {
		r, err := t.newNodeLatched(tx, true)
		if err != nil {
			return nil, pages, err
		}
		t.unlatch(r)
		root, pages = r.id, append(pages, r.id)
	} else {
		var built []storage.PageID
		root, built, err = t.BulkBuild(tx, items, nil)
		if pages = append(pages, built...); err != nil {
			return nil, pages, err
		}
	}
	err = access.MutatePage(pool, log, tx, meta.ID, func(p *storage.Page) error {
		writeMetaPage(p, root, uint64(len(items)), unique)
		return nil
	})
	if err != nil {
		return nil, pages, err
	}
	t.count.Store(int64(len(items)))
	return t, pages, nil
}

// BulkBuild constructs a complete B+tree bottom-up from sorted items
// into FRESH pages: leaves are packed densely left to right (chain
// links included), then interior levels are built from the leaf
// separators until a single root remains. Nothing links the new pages
// to the live tree — the caller publishes the result with InstallRoot
// (or frees the pages with FreePages after a failure or fallback).
//
// Every page is written exactly once and logged under tx with nil undo:
// fresh pages log full images (LSN 0 predates every full-page-write
// fence), so redo rebuilds them from nothing and a loser rolls back
// physically. No other transaction may write these pages before tx
// ends: the bulk loader holds InstallRoot's meta latch until it
// commits, and Build's caller publishes its new tree under a lock.
//
// pageDone, when non-nil, runs after each sealed page — the loader's
// cancellation hook. On any error the pages allocated so far are
// returned so the caller can free them.
func (t *BTree) BulkBuild(tx access.TxnContext, items []BulkItem, pageDone func() error) (root storage.PageID, pages []storage.PageID, err error) {
	if len(items) == 0 {
		return storage.InvalidPageID, nil, fmt.Errorf("index: bulk build of empty batch")
	}

	// A sealed node: its first composite key (the separator it
	// contributes to the level above) and its page id.
	type sealed struct {
		sep []byte
		id  storage.PageID
	}

	alloc := func() (*nref, error) {
		f, err := t.pool.NewPageLatched(storage.PageTypeIndex)
		if err != nil {
			return nil, err
		}
		pages = append(pages, f.ID)
		return &nref{id: f.ID, f: f, excl: true}, nil
	}
	// Each node is staged off the pool, then sealed: its header, slots
	// and cells copied onto its fresh frame in one logged record (its
	// only write — unlike newNodeLatched there is no separate empty-birth
	// record, halving the WAL bytes per page) and released.
	stage := storage.NewPage(storage.InvalidPageID, storage.PageTypeIndex)
	var sv view
	seal := func(r *nref) error {
		err := t.write(tx, r, nil, func(p *storage.Page) error {
			p.SetNext(stage.Next())
			p.SetPrev(stage.Prev())
			pl := p.Payload()
			copy(pl[:sv.slotEnd()], sv.pl)
			copy(pl[sv.cellStart:], sv.pl[sv.cellStart:])
			return nil
		})
		t.unlatch(r)
		if err == nil && pageDone != nil {
			err = pageDone()
		}
		return err
	}

	// Leaves: pack composite keys densely, maintaining the chain links.
	// The next leaf is allocated before the current one is sealed so the
	// forward link is known at write time.
	var level []sealed
	cur, err := alloc()
	if err != nil {
		return storage.InvalidPageID, pages, err
	}
	sv.format(stage, true, storage.InvalidPageID)
	var prev, first []byte
	for _, it := range items {
		ck := compositeKey(it.Key, it.RID)
		if len(ck) > MaxKeySize {
			t.unlatch(cur)
			return storage.InvalidPageID, pages, fmt.Errorf("%w: %d bytes (max %d)", ErrKeyTooLarge, len(ck), MaxKeySize)
		}
		if prev != nil && bytes.Compare(prev, ck) >= 0 {
			t.unlatch(cur)
			return storage.InvalidPageID, pages, ErrUnsorted
		}
		prev = ck
		if sv.n == 0 {
			first = ck
		} else if !sv.fits(len(ck)) {
			next, err := alloc()
			if err != nil {
				t.unlatch(cur)
				return storage.InvalidPageID, pages, err
			}
			stage.SetNext(next.id)
			level = append(level, sealed{sep: first, id: cur.id})
			if err := seal(cur); err != nil {
				t.unlatch(next)
				return storage.InvalidPageID, pages, err
			}
			sv.format(stage, true, storage.InvalidPageID)
			stage.SetPrev(cur.id)
			cur, first = next, ck
		}
		if err := sv.insert(sv.n, ck, storage.InvalidPageID); err != nil {
			t.unlatch(cur)
			return storage.InvalidPageID, pages, err
		}
	}
	level = append(level, sealed{sep: first, id: cur.id})
	if err := seal(cur); err != nil {
		return storage.InvalidPageID, pages, err
	}

	// Interior levels: children in order, separators between them (the
	// first key of each child's subtree, matching splitNode's choice).
	// One max-size separator of slack is left per node so a future
	// insert descent does not have to split it immediately.
	for len(level) > 1 {
		var next []sealed
		cur, err := alloc()
		if err != nil {
			return storage.InvalidPageID, pages, err
		}
		sv.format(stage, false, level[0].id)
		first := level[0].sep
		for _, e := range level[1:] {
			if sv.n > 0 && 2+sv.cellWidth(len(e.sep))+2+sv.cellWidth(MaxKeySize) > sv.free() {
				next = append(next, sealed{sep: first, id: cur.id})
				if err := seal(cur); err != nil {
					return storage.InvalidPageID, pages, err
				}
				if cur, err = alloc(); err != nil {
					return storage.InvalidPageID, pages, err
				}
				sv.format(stage, false, e.id)
				first = e.sep
				continue
			}
			if err := sv.insert(sv.n, e.sep, e.id); err != nil {
				t.unlatch(cur)
				return storage.InvalidPageID, pages, err
			}
		}
		next = append(next, sealed{sep: first, id: cur.id})
		if err := seal(cur); err != nil {
			return storage.InvalidPageID, pages, err
		}
		level = next
	}
	return level[0].id, pages, nil
}

// InstallRoot atomically publishes a prebuilt tree: under the exclusive
// meta latch (which every descent crabs through) it verifies the live
// tree is still an empty single leaf, then swaps the root pointer and
// entry count in one logged mutation under tx with nil undo — the meta
// latch is held from the swap until the caller's commit is durable, so
// no concurrent transaction can interleave a record on the meta page
// and the physical before-image undo (restoring the old root pointer)
// stays sound for both a live abort and a crash.
//
// On success the meta latch is HELD: the caller must commit tx and then
// call release exactly once. oldRoot is the detached empty leaf — free
// it only after the commit is durable (OnCommitted), because until then
// a rollback would restore the root pointer to it. ErrTreeNotEmpty
// means a concurrent insert won the race; everything is released and
// nothing was written.
func (t *BTree) InstallRoot(tx access.TxnContext, newRoot storage.PageID, count uint64) (oldRoot storage.PageID, release func(), err error) {
	metaF, rootID, err := t.metaLatch(true)
	if err != nil {
		return storage.InvalidPageID, nil, err
	}
	var old nref
	if err := t.latch(&old, rootID, true); err != nil {
		t.metaUnlatch(true, false)
		return storage.InvalidPageID, nil, err
	}
	// Any in-flight descent either already latched the old root (its
	// insert completed before our latch was granted — visible below as
	// a non-empty leaf) or is queued behind the meta latch and will see
	// the new root. A non-leaf root or any entry means the fast-path
	// precondition evaporated.
	if !old.v.leaf || old.v.n != 0 || t.count.Load() != 0 {
		t.unlatch(&old)
		t.metaUnlatch(true, false)
		return storage.InvalidPageID, nil, ErrTreeNotEmpty
	}
	err = access.LogLatchedMutation(t.getLog(), tx, metaF, nil, func(p *storage.Page) error {
		pl := p.Payload()
		binary.LittleEndian.PutUint64(pl[8:], uint64(newRoot))
		binary.LittleEndian.PutUint64(pl[16:], count)
		return nil
	})
	if err != nil {
		t.unlatch(&old)
		t.metaUnlatch(true, false)
		return storage.InvalidPageID, nil, err
	}
	// The meta page is the root's parent in the optimistic descent
	// protocol: bump its version so a descent that read the old root
	// pointer fails validation and retries.
	t.versSlot(t.metaID).Add(1)
	t.count.Store(int64(count))
	t.unlatch(&old)
	return rootID, func() { t.metaUnlatch(true, true) }, nil
}

// FreePages routes ids through the WAL-logged free path configured by
// SetFreer (no-op without one — pages then leak until the next
// free-list rebuild, which bulk-load callers accept only on the crash
// path).
func (t *BTree) FreePages(ids []storage.PageID) error {
	t.mu.Lock()
	f := t.freer
	t.mu.Unlock()
	if f == nil || len(ids) == 0 {
		return nil
	}
	return f(ids)
}
