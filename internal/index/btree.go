// Package index implements a disk-resident B+tree over buffer-managed
// pages: variable-length byte keys with order-preserving composite
// encoding, duplicate support, range scans over a linked leaf chain,
// and lazy deletion. It is the access-path service of the SBDMS Access
// layer ("access path structure, such as B-trees", Section 3.1).
//
// Concurrency is latch crabbing over the buffer pool's page latches —
// no tree-wide lock exists:
//
//   - Searches and range scans crab SHARED latches down the tree
//     (child latched before the parent is released) and walk the leaf
//     chain left to right; each leaf's matching keys are copied out
//     before the callback runs, so user callbacks never execute under
//     a latch.
//   - Inserts crab EXCLUSIVE latches down the tree, releasing each
//     safe ancestor as soon as the next level is latched, and split
//     full nodes preemptively on the way down (so a split never needs
//     to propagate back up past a released ancestor). A root split
//     swaps the root pointer under an exclusive latch on the metadata
//     page — the "tiny meta latch" serialising only root changes.
//   - Deletes descend shared like a search, then re-latch the target
//     leaf exclusively, moving right along the chain if a concurrent
//     split shifted the key (splits only ever move keys right).
//
// All latch acquisition is top-down and left-to-right, so waits form no
// cycles. Structure modifications (splits, root changes) run as short
// WAL-logged SYSTEM transactions that commit immediately regardless of
// the triggering user transaction: an abort of the user transaction
// undoes its key insert logically but keeps the split, and a crash
// mid-split is rolled back physically before any user record could
// depend on the new shape. Key-level mutations carry logical undo
// descriptors (see internal/access) because concurrent transactions
// interleave freely on shared leaves.
package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Index errors.
var (
	// ErrDuplicateKey is returned by unique indexes on key collision.
	ErrDuplicateKey = errors.New("index: duplicate key")
	// ErrCorrupt is returned when a node page's header, or a slot or
	// length an operation reads, fails its bounds check.
	ErrCorrupt = errors.New("index: corrupt node")
	// ErrKeyTooLarge is returned for keys exceeding MaxKeySize; the
	// bound is what lets crabbing writers prove an ancestor can absorb
	// any separator a descendant split may push into it.
	ErrKeyTooLarge = errors.New("index: key too large")
)

// ErrFormat is returned when a tree's metadata page carries the magic of
// the packed node format of earlier builds. There is one node format and
// no migration: the store has to be reloaded (sbdms -import) into a
// fresh one.
var ErrFormat = &wal.CodedError{Code: 1102, Msg: "B+tree written in an older node page format"}

const (
	indexMagic   = 0x5342444d53425432 // "SBDMSBT2": slot-directory nodes
	indexMagicV1 = 0x5342444d53425431 // "SBDMSBT1": packed nodes
)

// checkMagic reports whether the metadata payload pl of page id belongs
// to a tree in this build's format.
func checkMagic(pl []byte, id storage.PageID) error {
	switch binary.LittleEndian.Uint64(pl) {
	case indexMagic:
		return nil
	case indexMagicV1:
		return fmt.Errorf("%w: meta page %d", ErrFormat, id)
	}
	return fmt.Errorf("%w: bad meta magic on page %d", ErrCorrupt, id)
}

// MaxKeySize bounds the composite key length (user key escaped +
// terminator + RID suffix). With 4 KiB pages this keeps internal-node
// fanout >= 3 even for maximal keys.
const MaxKeySize = storage.PayloadSize / 4

// BTree is a B+tree keyed by arbitrary byte strings (use
// access.EncodeKey for order-preserving value encodings), mapping each
// key to one or more access.RIDs. Deletion is lazy: entries are removed
// but nodes are not rebalanced. This trades space for simplicity
// without affecting correctness.
//
// The root pointer lives in the metadata page and is read under that
// page's latch on every descent, never cached: any number of BTree
// handles over the same metadata page (live engines, rollback
// executors) stay coherent by construction. Only the entry count is
// kept in memory (synced to the metadata page by SyncMeta, recomputed
// by Recount after a crash).
type BTree struct {
	pool   *buffer.Manager
	metaID storage.PageID
	unique bool
	count  atomic.Int64

	// vers holds the descent version counters of the optimistic insert
	// protocol: every structural change to an interior node (separator
	// insert, split, root swap) bumps the node's slot under the X latch
	// that performs it. Slots are shared by PageID hash — a collision
	// can only invalidate an optimistic descent spuriously (the counter
	// is monotone), never hide a real change.
	vers      [descentVersSlots]atomic.Uint64
	fallbacks atomic.Uint64 // optimistic descents that fell back to X-crab

	mu    sync.Mutex // guards log/sys/freer configuration
	log   *wal.Log
	sys   access.SystemTxnHooks
	freer func([]storage.PageID) error
}

// descentVersSlots sizes the striped version-counter table. 256 slots
// keep false sharing low while bounding the memory cost per tree.
const descentVersSlots = 256

func (t *BTree) versSlot(id storage.PageID) *atomic.Uint64 {
	return &t.vers[uint64(id)%descentVersSlots]
}

// DescentFallbacks returns how many optimistic insert descents failed
// version validation (or found an unsafe leaf) and fell back to the
// exclusive crab descent.
func (t *BTree) DescentFallbacks() uint64 { return t.fallbacks.Load() }

// Create allocates a new empty tree and returns it with its metadata
// page id (persist that id in the catalog to reopen the tree).
func Create(pool *buffer.Manager, unique bool) (*BTree, storage.PageID, error) {
	meta, err := pool.NewPage(storage.PageTypeIndex)
	if err != nil {
		return nil, 0, err
	}
	rootF, err := pool.NewPage(storage.PageTypeIndex)
	if err != nil {
		_ = pool.Unpin(meta.ID, false)
		return nil, 0, err
	}
	var root view
	root.format(rootF.Page(), true, storage.InvalidPageID)
	if err := pool.Unpin(rootF.ID, true); err != nil {
		_ = pool.Unpin(meta.ID, false)
		return nil, 0, err
	}
	t := &BTree{pool: pool, metaID: meta.ID, unique: unique}
	writeMetaPage(meta.Page(), rootF.ID, 0, unique)
	if err := pool.Unpin(meta.ID, true); err != nil {
		return nil, 0, err
	}
	return t, meta.ID, nil
}

// Open loads an existing tree from its metadata page.
func Open(pool *buffer.Manager, metaID storage.PageID) (*BTree, error) {
	f, err := pool.PinLatched(metaID, false)
	if err != nil {
		return nil, err
	}
	defer pool.UnpinLatched(metaID, false, false)
	pl := f.Page().Payload()
	if err := checkMagic(pl, metaID); err != nil {
		return nil, err
	}
	t := &BTree{
		pool:   pool,
		metaID: metaID,
		unique: pl[24] == 1,
	}
	t.count.Store(int64(binary.LittleEndian.Uint64(pl[16:])))
	return t, nil
}

// writeMetaPage lays out the full metadata payload.
func writeMetaPage(p *storage.Page, root storage.PageID, count uint64, unique bool) {
	pl := p.Payload()
	binary.LittleEndian.PutUint64(pl, indexMagic)
	binary.LittleEndian.PutUint64(pl[8:], uint64(root))
	binary.LittleEndian.PutUint64(pl[16:], count)
	if unique {
		pl[24] = 1
	} else {
		pl[24] = 0
	}
}

// SetLog attaches a write-ahead log; subsequent mutations through a
// non-nil access.TxnContext are logged (physical redo, logical undo).
func (t *BTree) SetLog(l *wal.Log) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.log = l
}

// SetSystemTxns attaches the system-transaction hooks structure
// modifications (splits, root swaps) are logged under.
func (t *BTree) SetSystemTxns(s access.SystemTxnHooks) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sys = s
}

// SetFreer routes page deallocation (Drop) through the file manager's
// WAL-logged free path instead of the pool's direct free, so a crash
// between unlink and free cannot leak the pages.
func (t *BTree) SetFreer(f func([]storage.PageID) error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.freer = f
}

func (t *BTree) getLog() *wal.Log {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log
}

func (t *BTree) getSys() access.SystemTxnHooks {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sys
}

// MetaID returns the metadata page id used to reopen the tree.
func (t *BTree) MetaID() storage.PageID { return t.metaID }

// Unique reports whether the tree enforces key uniqueness.
func (t *BTree) Unique() bool { return t.unique }

// Len returns the number of entries.
func (t *BTree) Len() uint64 {
	n := t.count.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}

// SyncMeta persists the in-memory entry count into the metadata page
// and sets the clean-shutdown flag (unlogged; call on clean shutdown
// before the pool flushes). The flag tells the next open that the
// persisted count is trustworthy; it is consumed — cleared — before
// any new mutation can run.
func (t *BTree) SyncMeta() error {
	return t.pool.UpdatePage(t.metaID, func(p *storage.Page) error {
		pl := p.Payload()
		binary.LittleEndian.PutUint64(pl[16:], t.Len())
		pl[25] = 1
		return nil
	})
}

// ConsumeCleanFlag reports whether the previous shutdown synced the
// metadata cleanly, and clears the flag in the pool. The caller must
// flush the pool before serving traffic (sbdms.Open's durability
// baseline does), so a subsequent crash finds the flag cleared and
// recounts instead of trusting a by-then stale count.
func (t *BTree) ConsumeCleanFlag() (bool, error) {
	clean := false
	err := t.pool.UpdatePage(t.metaID, func(p *storage.Page) error {
		pl := p.Payload()
		clean = pl[25] == 1
		pl[25] = 0
		return nil
	})
	return clean, err
}

// Recount rebuilds the in-memory entry count by walking the leaf chain.
// Call after crash recovery: per-operation count updates are not WAL-
// logged (they would serialise every writer on the metadata page), so
// the persisted count is only trustworthy after a clean SyncMeta.
func (t *BTree) Recount() error {
	n := int64(0)
	err := t.rangeScan(nil, nil, func(ck []byte) error { n++; return nil })
	if err != nil {
		return err
	}
	t.count.Store(n)
	return nil
}

// --- composite key encoding -------------------------------------------

// compositeKey escapes the user key (0x00 -> 0x00 0xFF), appends the
// 0x00 0x00 terminator and the big-endian RID, yielding a byte string
// whose order is (key, rid) with no prefix ambiguity.
func compositeKey(key []byte, rid access.RID) []byte {
	out := append(appendEscaped(make([]byte, 0, len(key)+14), key), 0x00, 0x00)
	out = binary.BigEndian.AppendUint64(out, uint64(rid.Page))
	return binary.BigEndian.AppendUint16(out, rid.Slot)
}

// appendEscaped appends key with each 0x00 escaped as 0x00 0xFF.
func appendEscaped(out, key []byte) []byte {
	for _, b := range key {
		if b == 0x00 {
			out = append(out, 0x00, 0xFF)
		} else {
			out = append(out, b)
		}
	}
	return out
}

// ridOf reads the RID from a composite key's fixed-width suffix.
func ridOf(ck []byte) (access.RID, error) {
	if len(ck) < 12 {
		return access.RID{}, fmt.Errorf("%w: composite key too short", ErrCorrupt)
	}
	s := ck[len(ck)-10:]
	return access.RID{
		Page: storage.PageID(binary.BigEndian.Uint64(s)),
		Slot: binary.BigEndian.Uint16(s[8:]),
	}, nil
}

// splitComposite recovers the user key and RID from a composite key.
func splitComposite(ck []byte) ([]byte, access.RID, error) {
	rid, err := ridOf(ck)
	if err != nil {
		return nil, access.RID{}, err
	}
	body := ck[:len(ck)-12] // strip rid and terminator
	key := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		if body[i] == 0x00 {
			if i+1 >= len(body) || body[i+1] != 0xFF {
				return nil, access.RID{}, fmt.Errorf("%w: bad escape", ErrCorrupt)
			}
			key = append(key, 0x00)
			i++
			continue
		}
		key = append(key, body[i])
	}
	return key, rid, nil
}

// keyPrefixBounds returns [lo, hi) composite bounds covering every rid
// of the exact user key. Both share one allocation.
func keyPrefixBounds(key []byte) (lo, hi []byte) {
	n := len(key) + bytes.Count(key, []byte{0x00}) + 2
	buf := append(appendEscaped(make([]byte, 0, 2*n), key), 0x00, 0x00)
	buf = append(append(buf, buf[:n-1]...), 0x01)
	return buf[:n:n], buf[n:]
}

// --- latched node references -------------------------------------------

// nref is one latched node and its view. Readers and writers keep nrefs
// on the stack.
type nref struct {
	id    storage.PageID
	f     *buffer.Frame
	excl  bool
	dirty bool
	v     view
}

// latch pins+latches page id into r and parses it in place.
func (t *BTree) latch(r *nref, id storage.PageID, excl bool) error {
	f, err := t.pool.PinLatched(id, excl)
	if err != nil {
		return err
	}
	if err := r.v.parse(f.Page()); err != nil {
		_ = t.pool.UnpinLatched(id, excl, false)
		return err
	}
	r.id, r.f, r.excl, r.dirty = id, f, excl, false
	return nil
}

// unlatch releases the node. Safe on nil.
func (t *BTree) unlatch(r *nref) {
	if r == nil {
		return
	}
	_ = t.pool.UnpinLatched(r.id, r.excl, r.dirty)
}

// other returns the slot of pair that cur does not occupy: crabbing
// descents latch the next level into it before releasing cur.
func other(pair *[2]nref, cur *nref) *nref {
	if cur == &pair[0] {
		return &pair[1]
	}
	return &pair[0]
}

// write runs edit on r's latched frame as one mutation logged under tx
// with the given undo supplier, and re-parses the view so later reads
// through r see the new layout. Interior-node writes bump the
// node's descent version slot under the X latch: optimistic descents
// validate against it after taking their leaf latch. (A physical abort
// of the system transaction restores the bytes without un-bumping — the
// counter stays monotone, so a stale bump can only force a spurious
// fallback.)
func (t *BTree) write(tx access.TxnContext, r *nref, undo func() []byte, edit func(p *storage.Page) error) error {
	if err := access.LogLatchedMutation(t.getLog(), tx, r.f, undo, edit); err != nil {
		return err
	}
	r.dirty = true
	err := r.v.parse(r.f.Page())
	if !r.v.leaf {
		t.versSlot(r.id).Add(1)
	}
	return err
}

// metaLatch pins+latches the metadata page and returns the frame and
// the current root id.
func (t *BTree) metaLatch(excl bool) (*buffer.Frame, storage.PageID, error) {
	f, err := t.pool.PinLatched(t.metaID, excl)
	if err != nil {
		return nil, 0, err
	}
	pl := f.Page().Payload()
	if err := checkMagic(pl, t.metaID); err != nil {
		_ = t.pool.UnpinLatched(t.metaID, excl, false)
		return nil, 0, err
	}
	return f, storage.PageID(binary.LittleEndian.Uint64(pl[8:])), nil
}

func (t *BTree) metaUnlatch(excl, dirty bool) {
	_ = t.pool.UnpinLatched(t.metaID, excl, dirty)
}

// descendToLeaf crabs shared latches from the root down to the leaf
// that covers ck (leftmost leaf for nil), leaving it latched shared in
// leaf.
func (t *BTree) descendToLeaf(leaf *nref, ck []byte) error {
	_, rootID, err := t.metaLatch(false)
	if err != nil {
		return err
	}
	var pair [2]nref
	cur := &pair[0]
	err = t.latch(cur, rootID, false)
	t.metaUnlatch(false, false)
	if err != nil {
		return err
	}
	for !cur.v.leaf {
		if cur, err = t.crab(&pair, cur, ck); err != nil {
			return err
		}
	}
	*leaf = *cur
	return nil
}

// crab latches shared, into the slot of pair that cur does not occupy,
// the child of cur whose subtree covers ck (the leftmost for nil), then
// releases cur. On error both are released.
func (t *BTree) crab(pair *[2]nref, cur *nref, ck []byte) (*nref, error) {
	_, id, err := cur.v.route(ck)
	child := other(pair, cur)
	if err == nil {
		err = t.latch(child, id, false)
	}
	t.unlatch(cur)
	if err != nil {
		return nil, err
	}
	return child, nil
}

// --- system transactions for structure modifications -------------------

// smoBegin starts the system transaction a structure modification is
// logged under (nil context when unlogged).
func (t *BTree) smoBegin() (access.TxnContext, access.SystemTxnHooks, error) {
	sys := t.getSys()
	if sys.Begin == nil || t.getLog() == nil {
		return nil, sys, nil
	}
	stx, err := sys.Begin()
	return stx, sys, err
}

func (t *BTree) smoFinish(stx access.TxnContext, sys access.SystemTxnHooks, opErr error) error {
	if stx == nil {
		return opErr
	}
	if opErr != nil {
		if aerr := sys.Abort(stx); aerr != nil {
			return fmt.Errorf("%w (smo abort: %v)", opErr, aerr)
		}
		return opErr
	}
	return sys.Commit(stx)
}

// newNodeLatched allocates a page, returns it exclusively latched, and
// logs its (empty) birth under stx so redo reconstructs it.
func (t *BTree) newNodeLatched(stx access.TxnContext, leaf bool) (*nref, error) {
	f, err := t.pool.NewPageLatched(storage.PageTypeIndex)
	if err != nil {
		return nil, err
	}
	r := &nref{id: f.ID, f: f, excl: true, dirty: true}
	format := func(p *storage.Page) error { r.v.format(p, leaf, storage.InvalidPageID); return nil }
	if err := t.write(stx, r, nil, format); err != nil {
		t.unlatch(r)
		return nil, err
	}
	return r, nil
}

// --- operations ---------------------------------------------------------

// Insert adds (key, rid). Unique trees reject an existing key with
// ErrDuplicateKey.
func (t *BTree) Insert(key []byte, rid access.RID) error {
	return t.InsertTx(nil, key, rid)
}

// InsertTx adds (key, rid) under tx: the leaf mutation is logged with a
// logical undo (delete the entry again); any splits run as separate
// system transactions and survive a rollback of tx. Callers relying on
// uniqueness must hold a key-level lock across the operation — the
// tree serialises conflicting page access, not conflicting keys.
func (t *BTree) InsertTx(tx access.TxnContext, key []byte, rid access.RID) error {
	ck := compositeKey(key, rid)
	if len(ck) > MaxKeySize {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrKeyTooLarge, len(ck), MaxKeySize)
	}
	compensating := false
	if c, ok := tx.(access.CompensationContext); ok && c.Compensating() {
		compensating = true
	}
	if t.unique && !compensating {
		rids, err := t.Search(key)
		if err != nil {
			return err
		}
		for _, r := range rids {
			if r != rid {
				return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
			}
		}
	}
	// One optimistic shot per insert: when validation fails or the leaf
	// needs a split, finish under the X-crab protocol.
	inserted, fellback, err := t.insertOptimistic(tx, key, rid, ck)
	if err != nil {
		return err
	}
	for done := !fellback; !done; {
		if done, inserted, err = t.insertAttempt(tx, key, rid, ck); err != nil {
			return err
		}
	}
	if inserted {
		t.count.Add(1)
	}
	return nil
}

// insertOptimistic runs one optimistic insert descent: shared latches
// down the tree, recording the version counter of each interior node
// (starting with the metadata page) under its latch before following
// the child pointer, then an exclusive latch on the target leaf alone.
// The parent's version is re-validated after the leaf latch lands: a
// leaf split must insert a separator into (or split) that exact parent
// while holding the leaf's X latch, so the bump is ordered before this
// descent's leaf latch acquisition and an unchanged counter proves the
// latched leaf still covers ck. Validation failure — or a leaf that
// would need a split — falls back (fellback=true) without mutating
// anything; fellback=false with nil err means the insert is complete
// (inserted=false for an exact duplicate).
func (t *BTree) insertOptimistic(tx access.TxnContext, key []byte, rid access.RID, ck []byte) (inserted, fellback bool, err error) {
	_, rootID, err := t.metaLatch(false)
	if err != nil {
		return false, false, err
	}
	pSlot := t.versSlot(t.metaID)
	pv := pSlot.Load()
	var pair [2]nref
	cur := &pair[0]
	err = t.latch(cur, rootID, false)
	t.metaUnlatch(false, false)
	if err != nil {
		return false, false, err
	}
	for !cur.v.leaf {
		slot := t.versSlot(cur.id)
		v := slot.Load()
		if cur, err = t.crab(&pair, cur, ck); err != nil {
			return false, false, err
		}
		pSlot, pv = slot, v
	}
	leaf := cur
	t.unlatch(leaf)
	if err := t.latch(leaf, leaf.id, true); err != nil {
		return false, false, err
	}
	if pSlot.Load() != pv || !leaf.v.leaf || !leaf.v.safeFor(ck) {
		t.unlatch(leaf)
		t.fallbacks.Add(1)
		return false, true, nil
	}
	inserted, err = t.insertLeaf(tx, leaf, key, rid, ck)
	return inserted, false, err
}

// insertAttempt runs one exclusive crab descent. done=false means a
// root split was performed and the descent must restart.
func (t *BTree) insertAttempt(tx access.TxnContext, key []byte, rid access.RID, ck []byte) (done, inserted bool, err error) {
	_, rootID, err := t.metaLatch(false)
	if err != nil {
		return false, false, err
	}
	// cur and child occupy the two slots of pair, except that a split may
	// hand back its heap-allocated right half; both slots are free then.
	var pair [2]nref
	cur := &pair[0]
	if err := t.latch(cur, rootID, true); err != nil {
		t.metaUnlatch(false, false)
		return false, false, err
	}
	if !cur.v.safeFor(ck) {
		// The root itself must split: restart the latch acquisition
		// with the meta page held exclusively so the root pointer can
		// be swapped.
		t.unlatch(cur)
		t.metaUnlatch(false, false)
		if err := t.splitRoot(ck); err != nil {
			return false, false, err
		}
		return false, false, nil // retry descent
	}
	t.metaUnlatch(false, false)

	for !cur.v.leaf {
		i, id, err := cur.v.route(ck)
		child := other(&pair, cur)
		if err == nil {
			err = t.latch(child, id, true)
		}
		if err != nil {
			t.unlatch(cur)
			return false, false, err
		}
		if !child.v.safeFor(ck) {
			// Preemptive split: cur is safe (invariant), so it can
			// absorb the separator without propagating further up.
			right, sep, err := t.splitChild(cur, child, i, ck)
			if err != nil {
				t.unlatch(child)
				t.unlatch(cur)
				return false, false, err
			}
			if bytes.Compare(ck, sep) < 0 {
				t.unlatch(right)
			} else {
				t.unlatch(child)
				child = right
			}
		}
		t.unlatch(cur)
		cur = child
	}

	inserted, err = t.insertLeaf(tx, cur, key, rid, ck)
	return err == nil, inserted, err
}

// insertLeaf puts ck into the X-latched leaf r, logged under tx with the
// logical undo that deletes (key, rid) again, and releases r. An exact
// duplicate (same key and rid) is a no-op: inserted is false.
func (t *BTree) insertLeaf(tx access.TxnContext, r *nref, key []byte, rid access.RID, ck []byte) (inserted bool, err error) {
	defer t.unlatch(r)
	pos, dup, err := r.v.find(ck)
	if err != nil || dup {
		return false, err
	}
	err = t.write(tx, r, func() []byte { return undoIndexInsert(t.metaID, key, rid) }, func(*storage.Page) error {
		return r.v.insert(pos, ck, storage.InvalidPageID)
	})
	return err == nil, err
}

// splitChild splits child (latched exclusively) into (child, right),
// pushing the separator into parent at child position i. Every touched
// node — parent, child, the new right sibling and (for leaf splits)
// the old next leaf — stays exclusively latched across the whole
// system transaction, through commit or rollback: its records and
// outcome enter the log while no other transaction can touch the
// pages, which is what makes its physical undo sound (the manager's
// held-latches abort writes the before images back directly).
func (t *BTree) splitChild(parent, child *nref, i int, ck []byte) (*nref, []byte, error) {
	stx, sys, err := t.smoBegin()
	if err != nil {
		return nil, nil, err
	}
	right, oldNext, sep, err := t.splitNode(stx, child, ck)
	if err == nil {
		err = t.write(stx, parent, nil, func(*storage.Page) error { return parent.v.insert(i, sep, right.id) })
	}
	ferr := t.smoFinish(stx, sys, err)
	t.unlatch(oldNext)
	if ferr != nil {
		t.unlatch(right)
		return nil, nil, ferr
	}
	return right, sep, nil
}

// splitNode splits the (latched, full) node into itself plus a new
// right sibling, returning the latched sibling, the latched old next
// leaf (nil for internal nodes or tail leaves — the CALLER unlatches
// both after the system transaction finishes) and the separator key.
// Leaf splits maintain the chain links; latching the old next leaf is
// a left-to-right acquisition, consistent with every traversal.
//
// A node splits in half, except the rightmost leaf when ck, the key
// about to be inserted, sorts after its last entry: an append. That
// leaf keeps every entry but the last, which moves right ahead of ck,
// so ascending inserts leave full leaves behind them instead of half
// full ones.
func (t *BTree) splitNode(stx access.TxnContext, n *nref, ck []byte) (right, oldNext *nref, sep []byte, err error) {
	right, err = t.newNodeLatched(stx, n.v.leaf)
	if err != nil {
		return nil, nil, nil, err
	}
	// The right node takes entries [lo, n): a leaf's upper half (or its
	// last entry), or an internal node's entries past the separator it
	// pushes up, whose right-hand child becomes the new node's child0.
	leaf, mid, next := n.v.leaf, n.v.n/2, n.v.next
	lo, child0 := mid, storage.InvalidPageID
	if leaf && next == storage.InvalidPageID && n.v.n > 1 {
		last, err := n.v.key(n.v.n - 1)
		if err != nil {
			return right, nil, nil, err
		}
		if bytes.Compare(ck, last) > 0 {
			lo, mid = n.v.n-1, n.v.n-1
		}
	}
	if !leaf {
		lo = mid + 1
		if child0, err = n.v.child(lo); err != nil {
			return right, nil, nil, err
		}
	}
	k, err := n.v.key(mid)
	if err != nil {
		return right, nil, nil, err
	}
	sep = bytes.Clone(k)
	if leaf && next != storage.InvalidPageID {
		// Latch the neighbour BEFORE any write, so a failure can
		// roll the whole modification back under held latches.
		oldNext = new(nref)
		if err := t.latch(oldNext, next, true); err != nil {
			return right, nil, nil, err
		}
	}
	err = t.write(stx, right, nil, func(p *storage.Page) error {
		right.v.format(p, leaf, child0)
		if leaf {
			p.SetNext(next)
			p.SetPrev(n.id)
		}
		return right.v.appendFrom(&n.v, lo)
	})
	if err == nil {
		err = t.write(stx, n, nil, func(p *storage.Page) error {
			if leaf {
				p.SetNext(right.id)
			}
			return n.v.truncate(mid)
		})
	}
	if err == nil && oldNext != nil {
		err = t.write(stx, oldNext, nil, func(p *storage.Page) error { p.SetPrev(right.id); return nil })
	}
	if err != nil {
		return right, oldNext, nil, err
	}
	return right, oldNext, sep, nil
}

// splitRoot grows the tree by one level: the old root splits and a new
// internal root pointing at both halves is installed in the metadata
// page — all under the exclusive meta latch, so concurrent descents
// (which crab meta -> root) serialise against the swap.
func (t *BTree) splitRoot(ck []byte) error {
	metaF, rootID, err := t.metaLatch(true)
	if err != nil {
		return err
	}
	var root nref
	if err := t.latch(&root, rootID, true); err != nil {
		t.metaUnlatch(true, false)
		return err
	}
	if root.v.safeFor(ck) {
		// Another writer split it first.
		t.unlatch(&root)
		t.metaUnlatch(true, false)
		return nil
	}
	stx, sys, err := t.smoBegin()
	if err != nil {
		t.unlatch(&root)
		t.metaUnlatch(true, false)
		return err
	}
	var right, oldNext, newRoot *nref
	var sep []byte
	right, oldNext, sep, err = t.splitNode(stx, &root, ck)
	if err == nil {
		newRoot, err = t.newNodeLatched(stx, false)
	}
	if err == nil {
		err = t.write(stx, newRoot, nil, func(p *storage.Page) error {
			newRoot.v.format(p, false, root.id)
			return newRoot.v.insert(0, sep, right.id)
		})
	}
	dirtyMeta := false
	if err == nil {
		err = access.LogLatchedMutation(t.getLog(), stx, metaF, nil, func(p *storage.Page) error {
			binary.LittleEndian.PutUint64(p.Payload()[8:], uint64(newRoot.id))
			return nil
		})
		dirtyMeta = err == nil
		if dirtyMeta {
			// The meta page acts as the root's parent in the optimistic
			// descent protocol: bump its version under the exclusive
			// meta latch so a descent that read the old root pointer
			// (height-1 trees in particular, where the split leaf IS
			// the old root) fails validation and retries.
			t.versSlot(t.metaID).Add(1)
		}
	}
	err = t.smoFinish(stx, sys, err)
	t.unlatch(newRoot)
	t.unlatch(oldNext)
	t.unlatch(right)
	t.unlatch(&root)
	t.metaUnlatch(true, dirtyMeta)
	return err
}

// Search returns every RID stored under the exact key. Each RID is read
// straight from its entry's suffix under the shared leaf latch.
func (t *BTree) Search(key []byte) ([]access.RID, error) {
	lo, hi := keyPrefixBounds(key)
	var out []access.RID
	var leaf nref
	if err := t.descendToLeaf(&leaf, lo); err != nil {
		return nil, err
	}
	for {
		i, err := leaf.v.search(lo, false)
		for ; err == nil && i < leaf.v.n; i++ {
			var ck []byte
			if ck, err = leaf.v.key(i); err != nil {
				break
			}
			if bytes.Compare(ck, hi) >= 0 {
				t.unlatch(&leaf)
				return out, nil
			}
			var rid access.RID
			if rid, err = ridOf(ck); err != nil {
				break
			}
			out = append(out, rid)
		}
		// The window reached the end of the leaf: the key's entries may
		// continue in the right sibling (a descent by the bare prefix
		// lands one leaf left of a separator holding the key).
		next := leaf.v.next
		t.unlatch(&leaf)
		if err != nil {
			return nil, err
		}
		if next == storage.InvalidPageID {
			return out, nil
		}
		if err := t.latch(&leaf, next, false); err != nil {
			return nil, err
		}
	}
}

// Delete removes (key, rid) and reports whether it was present.
func (t *BTree) Delete(key []byte, rid access.RID) (bool, error) {
	return t.DeleteTx(nil, key, rid)
}

// DeleteTx removes (key, rid) under tx, logging the leaf mutation with
// a logical undo (re-insert the entry). The descent is shared; only the
// target leaf is latched exclusively. If a concurrent split moved the
// key right between the shared descent and the exclusive re-latch, the
// delete follows the chain right — splits only ever move keys right.
func (t *BTree) DeleteTx(tx access.TxnContext, key []byte, rid access.RID) (bool, error) {
	ck := compositeKey(key, rid)
	var pair [2]nref
	cur, err := t.relatchLeaf(&pair, ck)
	if err != nil {
		return false, err
	}
	for {
		pos, found, err := cur.v.find(ck)
		if err != nil {
			t.unlatch(cur)
			return false, err
		}
		if found {
			undo := func() []byte { return undoIndexDelete(t.metaID, key, rid) }
			err := t.write(tx, cur, undo, func(*storage.Page) error { return cur.v.remove(pos) })
			t.unlatch(cur)
			if err != nil {
				return false, err
			}
			t.count.Add(-1)
			return true, nil
		}
		// Not here. Only worth chasing right if the key could have been
		// moved by a split: ck sorts after everything in this leaf.
		if cur, err = t.chaseRight(&pair, cur, ck); cur == nil {
			return false, err
		}
	}
}

// relatchLeaf descends shared to the leaf covering ck and re-latches it
// exclusively in one slot of pair, for a writer that mutates one entry.
func (t *BTree) relatchLeaf(pair *[2]nref, ck []byte) (*nref, error) {
	cur := &pair[0]
	if err := t.descendToLeaf(cur, ck); err != nil {
		return nil, err
	}
	t.unlatch(cur)
	if err := t.latch(cur, cur.id, true); err != nil {
		return nil, err
	}
	return cur, nil
}

// chaseRight moves an exclusive search for ck from cur to its right
// sibling, latch-coupled, when ck sorts after every key of cur (only then
// can a concurrent split have moved it right). It returns nil, with cur
// released, when the search ends there.
func (t *BTree) chaseRight(pair *[2]nref, cur *nref, ck []byte) (*nref, error) {
	if cur.v.next == storage.InvalidPageID {
		t.unlatch(cur)
		return nil, nil
	}
	if cur.v.n > 0 {
		last, err := cur.v.key(cur.v.n - 1)
		if err != nil || bytes.Compare(ck, last) < 0 {
			t.unlatch(cur)
			return nil, err
		}
	}
	next := other(pair, cur)
	err := t.latch(next, cur.v.next, true)
	t.unlatch(cur)
	if err != nil {
		return nil, err
	}
	return next, nil
}

// RepointTx replaces the RID suffix of the unique tree's entry for key
// — (key, oldRID) becomes (key, newRID) — in place, logging the leaf
// mutation with a logical undo (repoint back). The version-chained KV
// core uses it to swing a key's index entry onto a freshly appended
// head version without a delete+insert pair (which would briefly drop
// the key from concurrent scans and double-log the leaf).
//
// In-place replacement preserves the leaf's sort invariant: the tree
// is unique, so the entry's neighbours belong to other user keys and
// compare on the user-key prefix alone. A parent separator equal to
// the old composite key may now exceed the new one in its RID suffix;
// descents by full composite key tolerate that with the same
// move-right chase deletes use (splits and stale separators only ever
// leave the target further right). Reports false when no entry for
// (key, oldRID) exists.
func (t *BTree) RepointTx(tx access.TxnContext, key []byte, oldRID, newRID access.RID) (bool, error) {
	ckOld := compositeKey(key, oldRID) // as long as the repointed key
	if len(ckOld) > MaxKeySize {
		return false, fmt.Errorf("%w: %d bytes (max %d)", ErrKeyTooLarge, len(ckOld), MaxKeySize)
	}
	var pair [2]nref
	cur, err := t.relatchLeaf(&pair, ckOld)
	if err != nil {
		return false, err
	}
	for {
		pos, found, err := cur.v.find(ckOld)
		if err != nil {
			t.unlatch(cur)
			return false, err
		}
		if found {
			undo := func() []byte { return undoIndexRepoint(t.metaID, key, oldRID, newRID) }
			err := t.write(tx, cur, undo, func(*storage.Page) error { return cur.v.repoint(pos, newRID) })
			t.unlatch(cur)
			return err == nil, err
		}
		if cur, err = t.chaseRight(&pair, cur, ckOld); cur == nil {
			return false, err
		}
	}
}

// Range iterates entries with lo <= key < hi (nil bounds are
// unbounded), in key order, calling fn with the user key and RID. Each
// leaf's matching entries are copied out under the shared leaf latch
// and fn runs after the latch is released: fn may take arbitrarily long
// (or re-enter the storage stack) without blocking writers.
func (t *BTree) Range(lo, hi []byte, fn func(key []byte, rid access.RID) error) error {
	var clo, chi []byte
	if lo != nil {
		clo, _ = keyPrefixBounds(lo)
	}
	if hi != nil {
		chi, _ = keyPrefixBounds(hi)
	}
	return t.rangeScan(clo, chi, func(ck []byte) error {
		key, rid, err := splitComposite(ck)
		if err != nil {
			return err
		}
		return fn(key, rid)
	})
}

// rangeScan walks composite keys in [clo, chi) (nil = unbounded). Each
// leaf's window is copied into one reused buffer before the latch is
// released, so fn runs off-latch; ck is valid only during its call.
func (t *BTree) rangeScan(clo, chi []byte, fn func(ck []byte) error) error {
	var leaf nref
	if err := t.descendToLeaf(&leaf, clo); err != nil {
		return err
	}
	var buf []byte
	var ends []int
	for {
		start, err := 0, error(nil)
		if clo != nil {
			start, err = leaf.v.search(clo, false)
		}
		buf, ends = buf[:0], ends[:0]
		done := false
		for i := start; err == nil && i < leaf.v.n; i++ {
			var k []byte
			if k, err = leaf.v.key(i); err != nil {
				break
			}
			if chi != nil && bytes.Compare(k, chi) >= 0 {
				done = true
				break
			}
			buf = append(buf, k...)
			ends = append(ends, len(buf))
		}
		next := leaf.v.next
		t.unlatch(&leaf)
		if err != nil {
			return err
		}
		b := 0
		for _, e := range ends {
			if err := fn(buf[b:e:e]); err != nil {
				return err
			}
			b = e
		}
		if done || next == storage.InvalidPageID {
			return nil
		}
		clo = nil // subsequent leaves start at 0
		if err := t.latch(&leaf, next, false); err != nil {
			return err
		}
	}
}

// Height returns the tree height (1 for a lone leaf).
func (t *BTree) Height() (int, error) {
	_, rootID, err := t.metaLatch(false)
	if err != nil {
		return 0, err
	}
	var pair [2]nref
	cur := &pair[0]
	err = t.latch(cur, rootID, false)
	t.metaUnlatch(false, false)
	if err != nil {
		return 0, err
	}
	h := 1
	for !cur.v.leaf {
		if cur, err = t.crab(&pair, cur, nil); err != nil {
			return 0, err
		}
		h++
	}
	t.unlatch(cur)
	return h, nil
}

// Drop frees every page of the tree including the metadata page,
// through the WAL-logged free path when a freer is attached (a crash
// mid-drop then replays the free markings instead of leaking the
// pages). Callers must ensure no concurrent operations on the tree.
func (t *BTree) Drop() error {
	_, rootID, err := t.metaLatch(true)
	if err != nil {
		return err
	}
	var ids []storage.PageID
	err = t.collect(rootID, &ids)
	t.metaUnlatch(true, false)
	if err != nil {
		return err
	}
	ids = append(ids, t.metaID)
	t.mu.Lock()
	freer := t.freer
	t.mu.Unlock()
	if freer != nil {
		return freer(ids)
	}
	for _, id := range ids {
		if err := t.pool.Deallocate(id); err != nil {
			return err
		}
	}
	return nil
}

func (t *BTree) collect(id storage.PageID, out *[]storage.PageID) error {
	var r nref
	if err := t.latch(&r, id, false); err != nil {
		return err
	}
	children, err := r.v.children()
	t.unlatch(&r)
	if err != nil {
		return err
	}
	for _, c := range children {
		if err := t.collect(c, out); err != nil {
			return err
		}
	}
	*out = append(*out, id)
	return nil
}
