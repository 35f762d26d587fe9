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
	for end, i := 3, 0; ; i++ {
		ck := compositeKey([]byte(fmt.Sprintf("full-%03d", i)), rid(i))
		if end += 2 + len(ck); end > storage.PayloadSize {
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
	return p, v.end
}

// TestNodeViewSeeds: a page built by format and insert parses back to
// its keys and children, key for key and child for child.
func TestNodeViewSeeds(t *testing.T) {
	for i, want := range viewSeedNodes() {
		p, end := want.build(t)
		var v view
		if err := v.parse(p); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if v.leaf != want.leaf || v.n != len(want.keys) || v.end != end {
			t.Fatalf("node %d: view leaf=%v n=%d end=%d, built end %d", i, v.leaf, v.n, v.end, end)
		}
		for j, k := range want.keys {
			if !bytes.Equal(v.key(j), k) {
				t.Fatalf("node %d key %d: view %x, want %x", i, j, v.key(j), k)
			}
		}
		if !slices.Equal(v.children(), want.children) {
			t.Fatalf("node %d children: view %v, want %v", i, v.children(), want.children)
		}
	}
}

// FuzzNodeView: any payload either parses as ErrCorrupt or yields keys
// and child ids inside the payload, from which format and insert
// rebuild the accepted payload byte for byte (byte 0 aside: any value
// but 1 reads as an internal node).
func FuzzNodeView(f *testing.F) {
	for _, n := range viewSeedNodes() {
		p, end := n.build(f)
		f.Add(p.Payload()[:end])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		p := storage.NewPage(1, storage.PageTypeIndex)
		copy(p.Payload(), payload)
		var v view
		if err := v.parse(p); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if v.n > maxNodeEntries || v.end > storage.PayloadSize {
			t.Fatalf("view n=%d end=%d out of range", v.n, v.end)
		}
		for i := 0; i < v.n; i++ {
			if o := int(v.off[i]); o < 5 || o+len(v.key(i)) > v.end {
				t.Fatalf("key %d at [%d,+%d) outside payload end %d", i, o, len(v.key(i)), v.end)
			}
		}
		n := seedNode{leaf: v.leaf, children: v.children()}
		for i := 0; i < v.n; i++ {
			n.keys = append(n.keys, v.key(i))
		}
		again, _ := n.build(t)
		var w view
		if err := w.parse(again); err != nil {
			t.Fatalf("rebuilt node does not parse: %v", err)
		}
		if w.n != v.n || w.end != v.end || w.leaf != v.leaf {
			t.Fatalf("rebuilt layout differs: n %d/%d end %d/%d", w.n, v.n, w.end, v.end)
		}
		if !bytes.Equal(again.Payload()[1:w.end], p.Payload()[1:v.end]) {
			t.Fatalf("rebuilt payload differs from the accepted one")
		}
	})
}

// FuzzNodeEdits runs a byte-driven sequence of insert, remove and
// repoint edits on one leaf page and one internal page, and after each
// step checks both the edited view and a fresh parse of the page
// against a sorted model. insert must refuse with ErrCorrupt, writing
// nothing, exactly when the entry would overflow the payload.
func FuzzNodeEdits(f *testing.F) {
	f.Add([]byte{0, 'm', 5, 0, 'a', 5, 0, 'z', 5, 3, 1, 2, 1, 4, 'm', 9, 4, 'c', 9, 4, 'x', 9, 7, 1, 6, 0, 6, 0})
	f.Add(bytes.Repeat([]byte{0, 'z', 255, 4, 'y', 255}, 24))
	f.Add(bytes.Repeat([]byte{1, 0, 250, 5, 0, 40, 6, 1}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		type model struct {
			seedNode
			end int
		}
		var pages [2]*storage.Page
		var views [2]view
		var models [2]model
		for k := range pages {
			pages[k] = storage.NewPage(storage.PageID(k+1), storage.PageTypeIndex)
			models[k].leaf = k == 0
			if k == 0 {
				views[k].format(pages[k], true, storage.InvalidPageID)
				models[k].end = 3
			} else {
				views[k].format(pages[k], false, 100)
				models[k].children, models[k].end = []storage.PageID{100}, 11
			}
		}
		check := func(step int, k int) {
			m := &models[k]
			var fresh view
			if err := fresh.parse(pages[k]); err != nil {
				t.Fatalf("step %d: edited page does not parse: %v", step, err)
			}
			for _, v := range []*view{&views[k], &fresh} {
				if v.leaf != m.leaf || v.n != len(m.keys) || v.end != m.end {
					t.Fatalf("step %d: leaf=%v n=%d end=%d, model %v %d %d", step, v.leaf, v.n, v.end, m.leaf, len(m.keys), m.end)
				}
				for i, ck := range m.keys {
					if !bytes.Equal(v.key(i), ck) {
						t.Fatalf("step %d: key %d = %x, model %x", step, i, v.key(i), ck)
					}
				}
				if !slices.Equal(v.children(), m.children) {
					t.Fatalf("step %d: children %v, model %v", step, v.children(), m.children)
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
				if got := v.lowerBound(ck); got != pos {
					t.Fatalf("step %d: lowerBound = %d, model %d", step, got, pos)
				}
				child := storage.PageID(1000 + step)
				w := v.width(len(ck))
				before := bytes.Clone(pages[k].Data)
				err := v.insert(pos, ck, child)
				if m.end+w > storage.PayloadSize {
					if !errors.Is(err, ErrCorrupt) || !bytes.Equal(pages[k].Data, before) {
						t.Fatalf("step %d: overflowing insert: err=%v, page changed=%v", step, err, !bytes.Equal(pages[k].Data, before))
					}
					break
				}
				if err != nil {
					t.Fatalf("step %d: insert of %d bytes at end %d: %v", step, w, m.end, err)
				}
				m.keys = slices.Insert(m.keys, pos, ck)
				if !m.leaf {
					m.children = slices.Insert(m.children, pos+1, child)
				}
				m.end += w
			case 2: // remove
				if len(m.keys) == 0 {
					break
				}
				i := take() % len(m.keys)
				v.remove(i)
				m.end -= v.width(len(m.keys[i]))
				m.keys = slices.Delete(m.keys, i, i+1)
				if !m.leaf {
					m.children = slices.Delete(m.children, i+1, i+2)
				}
			case 3: // repoint: user keys are unique, so the order holds
				if len(m.keys) == 0 {
					break
				}
				i := take() % len(m.keys)
				v.repoint(i, rid(step))
				ck := bytes.Clone(m.keys[i])
				copy(ck[len(ck)-10:], compositeKey(nil, rid(step))[2:])
				m.keys[i] = ck
			}
			check(step, k)
		}
	})
}

// TestCorruptNodeErrors: a leaf whose last key length runs past the
// payload fails every read and write that reaches it with ErrCorrupt,
// and no error path leaves a page pinned.
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

	// Corrupt the second leaf; its first entry names a key that lives there.
	var first nref
	if err := tr.descendToLeaf(&first, nil); err != nil {
		t.Fatal(err)
	}
	target := first.v.next
	tr.unlatch(&first)
	var ck []byte
	err := pool.UpdatePage(target, func(p *storage.Page) error {
		var v view
		if err := v.parse(p); err != nil {
			return err
		}
		ck = append([]byte(nil), v.key(0)...)
		binary.LittleEndian.PutUint16(p.Payload()[int(v.off[v.n-1])-2:], storage.PayloadSize)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	key, r, err := splitComposite(ck)
	if err != nil {
		t.Fatal(err)
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
	for name, op := range ops {
		if err := op(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s on a corrupt leaf: err = %v, want ErrCorrupt", name, err)
		}
		for _, id := range pages {
			if n := pool.PinCount(id); n != 0 {
				t.Errorf("%s left page %d pinned %d times", name, id, n)
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
