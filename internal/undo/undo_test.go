package undo

import (
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/wal"
)

// fakeTxn is a TxnContext that keeps every record logged through it.
// With compensating set it is a rollback context: what it logs carries
// the redo-only marker.
type fakeTxn struct {
	id           uint64
	last         wal.LSN
	recs         []*wal.Record
	compensating bool
}

func (f *fakeTxn) ID() uint64           { return f.id }
func (f *fakeTxn) LastLSN() wal.LSN     { return f.last }
func (f *fakeTxn) Compensating() bool   { return f.compensating }
func (f *fakeTxn) Record(r *wal.Record) { f.recs = append(f.recs, r); f.last = r.LSN }

type env struct {
	pool *buffer.Manager
	log  *wal.Log
	heap *access.HeapFile
	rids []access.RID // the seeded heap records, in insert order
	tree *index.BTree
}

// newEnv builds a logged heap and a logged B+tree over one pool, each
// seeded with three entries by an already finished transaction.
func newEnv(t *testing.T) *env {
	t.Helper()
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenDir(wal.NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(d, 64, nil)
	pool.SetBeforeEvict(l.BeforeEvict())
	fm, err := storage.OpenFileManager(pool)
	if err != nil {
		t.Fatal(err)
	}
	h, err := access.OpenHeap("heap", fm, pool)
	if err != nil {
		t.Fatal(err)
	}
	h.SetLog(l)
	tr, _, err := index.Create(pool, false)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetLog(l)
	e := &env{pool: pool, log: l, heap: h, tree: tr}
	seed := &fakeTxn{id: 1}
	for _, v := range []string{"alpha", "bravo", "charlie"} {
		rid, err := h.Insert(seed, []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.InsertTx(seed, []byte(v), rid); err != nil {
			t.Fatal(err)
		}
		e.rids = append(e.rids, rid)
	}
	return e
}

// heapState is the heap's logical content: every live record by RID.
func (e *env) heapState(t *testing.T) map[access.RID]string {
	t.Helper()
	out := make(map[access.RID]string)
	if err := e.heap.Scan(func(rid access.RID, rec []byte) error {
		out[rid] = string(rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

type entry struct {
	key string
	rid access.RID
}

// treeState is the tree's logical content in key order, plus its entry
// count.
func (e *env) treeState(t *testing.T) ([]entry, uint64) {
	t.Helper()
	var out []entry
	if err := e.tree.Range(nil, nil, func(k []byte, rid access.RID) error {
		out = append(out, entry{string(k), rid})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out, e.tree.Len()
}

// undoTwice rolls tx back through ex, newest record first, and then
// rolls it back again: the second pass models a recovery re-running a
// rollback whose compensations were already durable. check runs after
// each pass.
func undoTwice(t *testing.T, ex *Executor, tx *fakeTxn, check func(pass int)) {
	t.Helper()
	if len(tx.recs) == 0 {
		t.Fatal("the operation logged nothing to undo")
	}
	for pass := 1; pass <= 2; pass++ {
		clr := &fakeTxn{id: tx.id, last: tx.last, compensating: true}
		for i := len(tx.recs) - 1; i >= 0; i-- {
			if err := ex.UndoRecord(clr, tx.recs[i]); err != nil {
				t.Fatalf("pass %d: undo of record %d: %v", pass, tx.recs[i].LSN, err)
			}
		}
		for _, r := range clr.recs {
			if !r.RedoOnly() {
				t.Fatalf("pass %d: compensation record %d is not redo-only", pass, r.LSN)
			}
		}
		check(pass)
	}
}

func TestHeapInversesRestoreAndAreIdempotent(t *testing.T) {
	cases := []struct {
		name string
		op   func(t *testing.T, h *access.HeapFile, tx *fakeTxn, rids []access.RID)
	}{
		{"insert", func(t *testing.T, h *access.HeapFile, tx *fakeTxn, _ []access.RID) {
			if _, err := h.Insert(tx, []byte("delta")); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete", func(t *testing.T, h *access.HeapFile, tx *fakeTxn, rids []access.RID) {
			if err := h.Delete(tx, rids[1]); err != nil {
				t.Fatal(err)
			}
		}},
		{"update", func(t *testing.T, h *access.HeapFile, tx *fakeTxn, rids []access.RID) {
			// Same length: rewritten in its slot, undone by restoring
			// the exact old record.
			if got, err := h.Update(tx, rids[0], []byte("ALPHA")); err != nil || got != rids[0] {
				t.Fatalf("Update = %v, %v; want in place at %v", got, err, rids[0])
			}
		}},
		{"update-in-place", func(t *testing.T, h *access.HeapFile, tx *fakeTxn, rids []access.RID) {
			// Shorter: zero-padded into the old cell, undone by
			// restoring the old cell bytes.
			if ok, err := h.UpdateInPlace(tx, rids[2], []byte("ch")); err != nil || !ok {
				t.Fatalf("UpdateInPlace = %v, %v", ok, err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t)
			before := e.heapState(t)
			tx := &fakeTxn{id: 2}
			c.op(t, e.heap, tx, e.rids)
			if reflect.DeepEqual(e.heapState(t), before) {
				t.Fatal("the operation changed nothing")
			}
			undoTwice(t, NewExecutor(e.pool, e.log), tx, func(pass int) {
				if got := e.heapState(t); !reflect.DeepEqual(got, before) {
					t.Fatalf("pass %d: heap = %v, want %v", pass, got, before)
				}
			})
		})
	}
}

func TestIndexInversesRestoreAndAreIdempotent(t *testing.T) {
	cases := []struct {
		name string
		op   func(t *testing.T, e *env, tx *fakeTxn)
	}{
		{"insert", func(t *testing.T, e *env, tx *fakeTxn) {
			if err := e.tree.InsertTx(tx, []byte("delta"), access.RID{Page: e.rids[0].Page, Slot: 9}); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete", func(t *testing.T, e *env, tx *fakeTxn) {
			if ok, err := e.tree.DeleteTx(tx, []byte("bravo"), e.rids[1]); err != nil || !ok {
				t.Fatalf("DeleteTx = %v, %v", ok, err)
			}
		}},
	}
	for _, c := range cases {
		// registered: the live handle is the rollback target, so its
		// entry count follows the undo. log-only: the executor opens
		// its own handle from the metadata page named in the record.
		for _, registered := range []bool{true, false} {
			name := c.name + "/log-only"
			if registered {
				name = c.name + "/registered"
			}
			t.Run(name, func(t *testing.T) {
				e := newEnv(t)
				before, n := e.treeState(t)
				tx := &fakeTxn{id: 2}
				c.op(t, e, tx)
				if after, _ := e.treeState(t); reflect.DeepEqual(after, before) {
					t.Fatal("the operation changed nothing")
				}
				ex := NewExecutor(e.pool, e.log)
				if registered {
					ex.Register(e.tree)
				}
				undoTwice(t, ex, tx, func(pass int) {
					got, gotN := e.treeState(t)
					if !reflect.DeepEqual(got, before) {
						t.Fatalf("pass %d: entries = %v, want %v", pass, got, before)
					}
					if registered && gotN != n {
						t.Fatalf("pass %d: Len = %d, want %d", pass, gotN, n)
					}
				})
			})
		}
	}
}

func TestUndoRecordRefusesRecordsWithoutLogicalUndo(t *testing.T) {
	e := newEnv(t)
	ex := NewExecutor(e.pool, e.log)
	clr := &fakeTxn{id: 2, compensating: true}
	for _, rec := range []*wal.Record{
		{LSN: 10, Type: wal.RecUpdate},                        // no descriptor
		{LSN: 11, Type: wal.RecUpdate, Undo: wal.UndoNone},    // redo-only
		{LSN: 12, Type: wal.RecUpdate, Undo: []byte{0xEE, 0}}, // unknown kind
	} {
		if err := ex.UndoRecord(clr, rec); err == nil {
			t.Fatalf("record %d: undo succeeded, want an error", rec.LSN)
		}
	}
	if len(clr.recs) != 0 {
		t.Fatalf("refused undos logged %d records", len(clr.recs))
	}
	if _, n := e.treeState(t); n != 3 {
		t.Fatalf("tree Len = %d after refused undos, want 3", n)
	}
	if got := len(e.heapState(t)); got != 3 {
		t.Fatalf("heap holds %d records after refused undos, want 3", got)
	}
}
