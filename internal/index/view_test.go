package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/storage"
)

// viewSeedNodes are encodable nodes of both kinds: empty, small, with
// escaped zero bytes, and a leaf filled close to the page size.
func viewSeedNodes() []*node {
	full := &node{id: 4, leaf: true}
	for i := 0; safeForLeaf(full.encodedSize(), compositeKey([]byte("full-000"), rid(i))); i++ {
		full.keys = append(full.keys, compositeKey([]byte(fmt.Sprintf("full-%03d", i)), rid(i)))
	}
	return []*node{
		{id: 1, leaf: true},
		{id: 2, leaf: true, keys: [][]byte{
			compositeKey([]byte("alpha"), rid(1)),
			compositeKey([]byte("a\x00b"), rid(2)),
			compositeKey(nil, rid(3)),
		}},
		{id: 3, leaf: false,
			keys:     [][]byte{compositeKey([]byte("m"), rid(7)), compositeKey([]byte("t"), rid(9))},
			children: []storage.PageID{10, 11, 12}},
		full,
	}
}

func encodedPayload(t testing.TB, n *node) []byte {
	t.Helper()
	p := storage.NewPage(n.id, storage.PageTypeIndex)
	if err := n.encode(p); err != nil {
		t.Fatal(err)
	}
	return p.Payload()[:n.encodedSize()]
}

// TestNodeViewSeeds: on encoded nodes the view and decodeNode agree
// with the encoder's input key for key and child for child.
func TestNodeViewSeeds(t *testing.T) {
	for _, want := range viewSeedNodes() {
		p := storage.NewPage(want.id, storage.PageTypeIndex)
		copy(p.Payload(), encodedPayload(t, want))
		var v view
		if err := v.parse(p); err != nil {
			t.Fatalf("node %d: %v", want.id, err)
		}
		if v.leaf != want.leaf || v.n != len(want.keys) || v.end != want.encodedSize() {
			t.Fatalf("node %d: view leaf=%v n=%d end=%d", want.id, v.leaf, v.n, v.end)
		}
		got := v.decodeNode(want.id)
		for i, k := range want.keys {
			if !bytes.Equal(v.key(i), k) || !bytes.Equal(got.keys[i], k) {
				t.Fatalf("node %d key %d: view %x, decoded %x, want %x", want.id, i, v.key(i), got.keys[i], k)
			}
		}
		if !slices.Equal(v.children(), want.children) || !slices.Equal(got.children, want.children) {
			t.Fatalf("node %d children: view %v, decoded %v, want %v", want.id, v.children(), got.children, want.children)
		}
	}
}

// FuzzNodeView: any payload either parses as ErrCorrupt or yields keys
// and child ids inside the payload, which decodeNode copies faithfully
// and encode writes back to the same layout.
func FuzzNodeView(f *testing.F) {
	for _, n := range viewSeedNodes() {
		f.Add(encodedPayload(f, n))
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
		n := v.decodeNode(p.ID)
		if len(n.keys) != v.n || len(v.children()) != len(n.children) {
			t.Fatalf("decodeNode: %d keys, %d children; view %d", len(n.keys), len(n.children), v.n)
		}
		again := storage.NewPage(2, storage.PageTypeIndex)
		if err := n.encode(again); err != nil {
			t.Fatalf("accepted node does not re-encode: %v", err)
		}
		var w view
		if err := w.parse(again); err != nil {
			t.Fatalf("re-encoded node does not parse: %v", err)
		}
		if w.n != v.n || w.end != v.end || w.leaf != v.leaf || !slices.Equal(w.children(), v.children()) {
			t.Fatalf("re-encoded layout differs: n %d/%d end %d/%d", w.n, v.n, w.end, v.end)
		}
		for i := 0; i < v.n; i++ {
			if !bytes.Equal(w.key(i), v.key(i)) || !bytes.Equal(n.keys[i], v.key(i)) {
				t.Fatalf("key %d differs after decode/encode", i)
			}
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
		"RangeLatched": func() error {
			return tr.RangeLatched(nil, func([]byte, access.RID, bool) error { return nil })
		},
		"InsertTx": func() error {
			return tr.InsertTx(nil, key, access.RID{Page: r.Page + 1})
		},
		"DeleteTx": func() error { _, err := tr.DeleteTx(nil, key, r); return err },
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
