package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/storage"
)

// seedNode is a node's contents: its keys and, for an internal node,
// its len(keys)+1 children.
type seedNode struct {
	leaf     bool
	keys     [][]byte
	children []storage.PageID
}

// viewSeedNodes are nodes of both kinds: empty, small, with escaped
// zero bytes, and a leaf filled until the next key would overflow.
func viewSeedNodes() []seedNode {
	full := seedNode{leaf: true}
	used := leafSlotsOff
	for i := 0; ; i++ {
		ck := compositeKey([]byte(fmt.Sprintf("full-%03d", i)), rid(i))
		if used += 4 + len(ck); used > storage.PayloadSize {
			break
		}
		full.keys = append(full.keys, ck)
	}
	return []seedNode{
		{leaf: true},
		{leaf: true, keys: [][]byte{
			compositeKey(nil, rid(3)),
			compositeKey([]byte("a\x00b"), rid(2)),
			compositeKey([]byte("alpha"), rid(1)),
		}},
		{keys: [][]byte{compositeKey([]byte("m"), rid(7)), compositeKey([]byte("t"), rid(9))},
			children: []storage.PageID{10, 11, 12}},
		full,
	}
}

// build lays the node out on a fresh page through format and insert,
// and returns the page and its payload bytes in use.
func (n seedNode) build(t testing.TB) (*storage.Page, int) {
	t.Helper()
	p := storage.NewPage(1, storage.PageTypeIndex)
	var v view
	if n.leaf {
		v.format(p, true, storage.InvalidPageID)
	} else {
		v.format(p, false, n.children[0])
	}
	for i, k := range n.keys {
		var c storage.PageID
		if !n.leaf {
			c = n.children[i+1]
		}
		if err := v.insert(i, k, c); err != nil {
			t.Fatal(err)
		}
	}
	return p, v.used()
}

// used returns the payload bytes live entries and the header take.
func (v *view) used() int { return len(v.pl) - v.free() }

// viewKeys reads every key and child of v, failing the test on any error.
func viewKeys(t testing.TB, v *view) ([][]byte, []storage.PageID) {
	t.Helper()
	keys := make([][]byte, v.n)
	for i := range keys {
		k, err := v.key(i)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		keys[i] = k
	}
	children, err := v.children()
	if err != nil {
		t.Fatal(err)
	}
	return keys, children
}

// TestNodeViewSeeds: a page built by format and insert parses back to
// its keys and children, key for key and child for child, and the full
// leaf holds as many entries as its keys plus four bytes each allow.
func TestNodeViewSeeds(t *testing.T) {
	for i, want := range viewSeedNodes() {
		p, used := want.build(t)
		var v view
		if err := v.parse(p); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if v.leaf != want.leaf || v.n != len(want.keys) || v.used() != used || v.frag != 0 {
			t.Fatalf("node %d: view leaf=%v n=%d used=%d frag=%d, built used %d", i, v.leaf, v.n, v.used(), v.frag, used)
		}
		keys, children := viewKeys(t, &v)
		for j, k := range want.keys {
			if !bytes.Equal(keys[j], k) {
				t.Fatalf("node %d key %d: view %x, want %x", i, j, keys[j], k)
			}
		}
		if !slices.Equal(children, want.children) {
			t.Fatalf("node %d children: view %v, want %v", i, children, want.children)
		}
	}
	full := viewSeedNodes()[3]
	if len(full.keys) != 169 {
		t.Fatalf("a full leaf of 20-byte composite keys holds %d entries, want 169", len(full.keys))
	}
}

// FuzzNodeView: any payload either fails parse with ErrCorrupt, or every
// key(i) and child(i) returns a slice or id read from inside the payload
// or ErrCorrupt. Edits on an accepted page (a search, an insert that may
// compact, a remove) return nil or ErrCorrupt too. Nothing panics.
func FuzzNodeView(f *testing.F) {
	for _, n := range viewSeedNodes() {
		p, _ := n.build(f)
		f.Add(bytes.Clone(p.Payload()))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		p := storage.NewPage(1, storage.PageTypeIndex)
		copy(p.Payload(), payload)
		var v view
		corruptOnly := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: unexpected error class: %v", what, err)
			}
		}
		if err := v.parse(p); err != nil {
			corruptOnly("parse", err)
			return
		}
		if v.n > maxNodeEntries || v.slotEnd() > v.cellStart || v.cellStart > storage.PayloadSize {
			t.Fatalf("view n=%d slots end %d cell start %d out of range", v.n, v.slotEnd(), v.cellStart)
		}
		pl := p.Payload()
		for i := 0; i < v.n; i++ {
			k, err := v.key(i)
			corruptOnly("key", err)
			if err != nil {
				continue
			}
			off := int(binary.LittleEndian.Uint16(pl[v.slots()+2*i:])) + 2
			if off < v.cellStart || off+len(k) > len(pl) || !bytes.Equal(k, pl[off:off+len(k)]) {
				t.Fatalf("key %d at [%d,+%d) outside the cells [%d,%d)", i, off, len(k), v.cellStart, len(pl))
			}
		}
		if !v.leaf {
			for i := 0; i <= v.n; i++ {
				_, err := v.child(i)
				corruptOnly("child", err)
			}
		}
		ck := compositeKey([]byte("fuzz"), rid(1))
		pos, _, err := v.find(ck)
		corruptOnly("find", err)
		if err == nil {
			corruptOnly("insert", v.insert(pos, ck, 99))
		}
		if v.n > 0 {
			corruptOnly("remove", v.remove(0))
		}
	})
}

// nodeEditSeeds are FuzzNodeEdits inputs: a mixed sequence on both
// pages, inserts until the leaf overflows, and remove-heavy sequences
// that leave dead cells behind so a later insert must compact.
func nodeEditSeeds() [][]byte {
	fill := bytes.Repeat([]byte{0, 'z', 255, 4, 'y', 255}, 24)
	churn := append(bytes.Repeat([]byte{0, 'k', 60}, 60), bytes.Repeat([]byte{2, 0, 0, 'q', 90}, 40)...)
	holes := bytes.Repeat([]byte{0, 'a', 120, 0, 'b', 120, 2, 1, 4, 'i', 200, 6, 0}, 20)
	return [][]byte{
		{0, 'm', 5, 0, 'a', 5, 0, 'z', 5, 3, 1, 2, 1, 4, 'm', 9, 4, 'c', 9, 4, 'x', 9, 7, 1, 6, 0, 6, 0},
		fill,
		bytes.Repeat([]byte{1, 0, 250, 5, 0, 40, 6, 1}, 40),
		churn,
		holes,
	}
}

// FuzzNodeEdits runs a byte-driven sequence of insert, remove and
// repoint edits on one leaf page and one internal page, and after each
// step checks both the edited view and a fresh parse of the page
// against a sorted model. insert must refuse with ErrCorrupt, writing
// nothing, exactly when the entry would overflow the payload; dead
// cells never count against it, because an insert that needs them
// compacts the page first.
func FuzzNodeEdits(f *testing.F) {
	for _, seed := range nodeEditSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		type model struct {
			seedNode
			used int
		}
		var pages [2]*storage.Page
		var views [2]view
		var models [2]model
		for k := range pages {
			pages[k] = storage.NewPage(storage.PageID(k+1), storage.PageTypeIndex)
			models[k].leaf = k == 0
			if k == 0 {
				views[k].format(pages[k], true, storage.InvalidPageID)
				models[k].used = leafSlotsOff
			} else {
				views[k].format(pages[k], false, 100)
				models[k].children, models[k].used = []storage.PageID{100}, internalSlotsOff
			}
		}
		check := func(step int, k int) {
			m := &models[k]
			var fresh view
			if err := fresh.parse(pages[k]); err != nil {
				t.Fatalf("step %d: edited page does not parse: %v", step, err)
			}
			if fresh.cellStart != views[k].cellStart || fresh.frag != views[k].frag {
				t.Fatalf("step %d: view cells %d+%d, page %d+%d", step, views[k].cellStart, views[k].frag, fresh.cellStart, fresh.frag)
			}
			for _, v := range []*view{&views[k], &fresh} {
				if v.leaf != m.leaf || v.n != len(m.keys) || v.used() != m.used {
					t.Fatalf("step %d: leaf=%v n=%d used=%d, model %v %d %d", step, v.leaf, v.n, v.used(), m.leaf, len(m.keys), m.used)
				}
				keys, children := viewKeys(t, v)
				for i, ck := range m.keys {
					if !bytes.Equal(keys[i], ck) {
						t.Fatalf("step %d: key %d = %x, model %x", step, i, keys[i], ck)
					}
				}
				if !slices.Equal(children, m.children) {
					t.Fatalf("step %d: children %v, model %v", step, children, m.children)
				}
			}
		}
		take := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for step := 0; len(ops) > 0; step++ {
			op := take()
			k := op >> 2 & 1
			v, m := &views[k], &models[k]
			switch op % 4 {
			case 0, 1: // insert: a user key of one byte repeated, made unique by step
				c, l := take(), take()
				key := binary.BigEndian.AppendUint16(bytes.Repeat([]byte{byte(c)}, l), uint16(step))
				ck := compositeKey(key, rid(step))
				pos, _ := slices.BinarySearchFunc(m.keys, ck, bytes.Compare)
				if got, dup, err := v.find(ck); err != nil || dup || got != pos {
					t.Fatalf("step %d: find = %d, %v, %v; model %d", step, got, dup, err, pos)
				}
				child := storage.PageID(1000 + step)
				need := 2 + v.cellWidth(len(ck))
				before := bytes.Clone(pages[k].Data)
				err := v.insert(pos, ck, child)
				if m.used+need > storage.PayloadSize {
					if !errors.Is(err, ErrCorrupt) || !bytes.Equal(pages[k].Data, before) {
						t.Fatalf("step %d: overflowing insert: err=%v, page changed=%v", step, err, !bytes.Equal(pages[k].Data, before))
					}
					break
				}
				if err != nil {
					t.Fatalf("step %d: insert of %d bytes at %d used: %v", step, need, m.used, err)
				}
				m.keys = slices.Insert(m.keys, pos, ck)
				if !m.leaf {
					m.children = slices.Insert(m.children, pos+1, child)
				}
				m.used += need
			case 2: // remove
				if len(m.keys) == 0 {
					break
				}
				i := take() % len(m.keys)
				if err := v.remove(i); err != nil {
					t.Fatalf("step %d: remove %d: %v", step, i, err)
				}
				m.used -= 2 + v.cellWidth(len(m.keys[i]))
				m.keys = slices.Delete(m.keys, i, i+1)
				if !m.leaf {
					m.children = slices.Delete(m.children, i+1, i+2)
				}
			case 3: // repoint: user keys are unique, so the order holds
				if len(m.keys) == 0 {
					break
				}
				i := take() % len(m.keys)
				if err := v.repoint(i, rid(step)); err != nil {
					t.Fatalf("step %d: repoint %d: %v", step, i, err)
				}
				ck := bytes.Clone(m.keys[i])
				copy(ck[len(ck)-10:], compositeKey(nil, rid(step))[2:])
				m.keys[i] = ck
			}
			check(step, k)
		}
	})
}

// TestNodeCompaction: removing every other entry of a full leaf leaves
// dead cells; an insert that fits only with them reclaimed compacts the
// page in the same edit, keeping every key, and clears frag.
func TestNodeCompaction(t *testing.T) {
	full := viewSeedNodes()[3]
	p, _ := full.build(t)
	var v view
	if err := v.parse(p); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(full.keys)
	for i := len(want) - 2; i >= 0; i -= 2 {
		if err := v.remove(i); err != nil {
			t.Fatal(err)
		}
		want = slices.Delete(want, i, i+1)
	}
	if v.frag == 0 {
		t.Fatal("removes left no dead cells")
	}
	big := compositeKey(bytes.Repeat([]byte{'~'}, 600), rid(1))
	if 2+v.cellWidth(len(big)) <= v.cellStart-v.slotEnd() {
		t.Fatalf("the insert fits without compaction (%d contiguous bytes)", v.cellStart-v.slotEnd())
	}
	if err := v.insert(v.n, big, storage.InvalidPageID); err != nil {
		t.Fatal(err)
	}
	want = append(want, big)
	if v.frag != 0 {
		t.Fatalf("frag = %d after compaction", v.frag)
	}
	var fresh view
	if err := fresh.parse(p); err != nil {
		t.Fatal(err)
	}
	keys, _ := viewKeys(t, &fresh)
	if len(keys) != len(want) {
		t.Fatalf("%d keys after compaction, want %d", len(keys), len(want))
	}
	for i := range want {
		if !bytes.Equal(keys[i], want[i]) {
			t.Fatalf("key %d = %x, want %x", i, keys[i], want[i])
		}
	}
}

// TestCorruptNodeErrors: a leaf with (a) a bad header, (b) a slot
// pointing outside its cells, or (c) a key length running past the
// payload fails every read and write that reaches the bad part with
// ErrCorrupt, and no error path leaves a page pinned. parse checks only
// the header, so (b) and (c) corrupt the entry every op reads: the
// first of the second leaf, the key the ops name.
func TestCorruptNodeErrors(t *testing.T) {
	tr, pool := newTree(t, false)
	for i := 0; i < 600; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("k%04d", i)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := tr.Height(); err != nil || h != 2 {
		t.Fatalf("height = %d, %v; want 2", h, err)
	}
	var pages []storage.PageID
	if err := tr.collect(tr.rootID(t), &pages); err != nil {
		t.Fatal(err)
	}
	pages = append(pages, tr.MetaID())

	var first nref
	if err := tr.descendToLeaf(&first, nil); err != nil {
		t.Fatal(err)
	}
	target := first.v.next
	tr.unlatch(&first)
	var ck, clean []byte
	err := pool.UpdatePage(target, func(p *storage.Page) error {
		var v view
		if err := v.parse(p); err != nil {
			return err
		}
		k, err := v.key(0)
		ck, clean = bytes.Clone(k), bytes.Clone(p.Payload())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	key, r, err := splitComposite(ck)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func(pl []byte){
		"header": func(pl []byte) { binary.LittleEndian.PutUint16(pl[nodeCountOff:], maxNodeEntries+1) },
		"slot":   func(pl []byte) { binary.LittleEndian.PutUint16(pl[leafSlotsOff:], storage.PayloadSize-1) },
		"length": func(pl []byte) {
			s := binary.LittleEndian.Uint16(pl[leafSlotsOff:])
			binary.LittleEndian.PutUint16(pl[s:], storage.PayloadSize)
		},
	}
	ops := map[string]func() error{
		"Search": func() error { _, err := tr.Search(key); return err },
		"Range": func() error {
			return tr.Range(nil, nil, func([]byte, access.RID) error { return nil })
		},
		"InsertTx": func() error {
			return tr.InsertTx(nil, key, access.RID{Page: r.Page + 1})
		},
		"DeleteTx": func() error { _, err := tr.DeleteTx(nil, key, r); return err },
		"RepointTx": func() error {
			_, err := tr.RepointTx(nil, key, r, access.RID{Page: r.Page + 1})
			return err
		},
	}
	for what, corrupt := range corruptions {
		err := pool.UpdatePage(target, func(p *storage.Page) error {
			copy(p.Payload(), clean)
			corrupt(p.Payload())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, op := range ops {
			if err := op(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s on a leaf with a bad %s: err = %v, want ErrCorrupt", name, what, err)
			}
			for _, id := range pages {
				if n := pool.PinCount(id); n != 0 {
					t.Errorf("%s (bad %s) left page %d pinned %d times", name, what, id, n)
				}
			}
		}
	}
}

// rootID reads the root pointer off the metadata page.
func (t *BTree) rootID(tb testing.TB) storage.PageID {
	tb.Helper()
	_, root, err := t.metaLatch(false)
	if err != nil {
		tb.Fatal(err)
	}
	t.metaUnlatch(false, false)
	return root
}

// newSearchTree builds a unique tree of n "k%08d" keys, inserted in a
// scattered order, over a pool that holds all of it.
func newSearchTree(tb testing.TB, n int) *BTree {
	tb.Helper()
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		tb.Fatal(err)
	}
	tr, _, err := Create(buffer.New(d, 1024, buffer.NewLRU()), true)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		j := i * 7919 % n
		if err := tr.Insert(searchKey(j), rid(j)); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

func searchKey(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

const searchKeys = 20000

func BenchmarkSearch(b *testing.B) {
	tr := newSearchTree(b, searchKeys)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = searchKey(i * 7 % searchKeys)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rids, err := tr.Search(keys[i%len(keys)]); err != nil || len(rids) != 1 {
			b.Fatalf("Search = %v, %v", rids, err)
		}
	}
}

func BenchmarkRange50(b *testing.B) {
	tr := newSearchTree(b, searchKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * 7 % (searchKeys - 50)
		n := 0
		err := tr.Range(searchKey(lo), searchKey(lo+49), func([]byte, access.RID) error { n++; return nil })
		if err != nil || n != 49 {
			b.Fatalf("Range = %d keys, %v", n, err)
		}
	}
}

// TestSearchAllocs pins the in-place read path: a point Search allocates
// its key bounds, its result and the buffer pool's frame handle for each
// page it pins (metadata plus one per level), and nothing to read a page.
func TestSearchAllocs(t *testing.T) {
	tr := newSearchTree(t, searchKeys)
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	key := searchKey(12345)
	if rids, err := tr.Search(key); err != nil || len(rids) != 1 {
		t.Fatalf("Search = %v, %v", rids, err)
	}
	want := float64(2 + 1 + h)
	if n := testing.AllocsPerRun(1000, func() { _, _ = tr.Search(key) }); n > want {
		t.Fatalf("Search allocates %.1f per call at height %d, want <= %.0f", n, h, want)
	}
}

// TestInsertDeleteBytes pins the in-place write path: an InsertTx +
// DeleteTx pair on a warm tree edits the latched leaf without copying
// it, so the pair allocates only its keys, the uniqueness search and
// frame handles — well under one page.
func TestInsertDeleteBytes(t *testing.T) {
	tr := newSearchTree(t, searchKeys)
	key := append(searchKey(12345), 'x')
	pair := func() {
		if err := tr.InsertTx(nil, key, rid(1)); err != nil {
			t.Fatal(err)
		}
		if ok, err := tr.DeleteTx(nil, key, rid(1)); err != nil || !ok {
			t.Fatalf("DeleteTx = %v, %v", ok, err)
		}
	}
	pair() // any split the insert needs happens here
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2048 {
		t.Fatalf("an insert+delete pair allocates %d bytes, want <= 2048", per)
	}
}
