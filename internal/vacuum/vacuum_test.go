package vacuum

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/undo"
	"repro/internal/wal"
)

// failOnce is a device whose next write fails while armed: one
// transient fault, after which the device is healthy again.
type failOnce struct {
	storage.Device
	armed atomic.Bool
}

var errInjected = errors.New("injected write failure")

func (d *failOnce) WriteAt(p []byte, off int64) (int, error) {
	if d.armed.CompareAndSwap(true, false) {
		return 0, errInjected
	}
	return d.Device.WriteAt(p, off)
}

// keyspace is a version-chained heap plus unique index wired the way
// the KV core wires them: one log, one transaction manager, logical
// undo through the executor.
type keyspace struct {
	t       *testing.T
	dev     *failOnce
	pool    *buffer.Manager
	log     *wal.Log
	heap    *access.HeapFile
	idx     *index.BTree
	txns    *txn.Manager
	removed int // OnKeyRemoved calls
}

func newKeyspace(t *testing.T, frames int) *keyspace {
	t.Helper()
	dev := &failOnce{Device: storage.NewMemDevice()}
	d, err := storage.OpenDisk(dev)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenDir(wal.NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(d, frames, buffer.NewLRU())
	pool.SetBeforeEvict(l.BeforeEvict())
	fm, err := storage.OpenFileManager(pool)
	if err != nil {
		t.Fatal(err)
	}
	m := txn.NewManager(l, pool)
	fm.SetLogger(m.PageLogger())
	ex := undo.NewExecutor(pool, l)
	ex.SetSystemTxns(m.SystemHooksHeldLatches())
	m.SetUndoHandler(ex)
	h, err := access.OpenHeap("kv", fm, pool)
	if err != nil {
		t.Fatal(err)
	}
	h.SetLog(l)
	idx, _, err := index.Create(pool, true)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetLog(l)
	idx.SetSystemTxns(m.SystemHooksHeldLatches())
	idx.SetFreer(fm.FreePagesLogged)
	ex.Register(idx)
	return &keyspace{t: t, dev: dev, pool: pool, log: l, heap: h, idx: idx, txns: m}
}

func (ks *keyspace) config() Config {
	return Config{
		Heap:  ks.heap,
		Index: ks.idx,
		Txns:  ks.txns,
		Resource: func(key []byte) (string, error) {
			return "kv/" + string(key), nil
		},
		ScanFrom:     encKey(""),
		OnKeyRemoved: func() { ks.removed++ },
	}
}

func encKey(k string) []byte { return access.EncodeKey(access.NewString(k)) }

// write links a new head version (a tombstone when flags says so) in
// front of k's chain and commits it, returning its commit timestamp.
func (ks *keyspace) write(k string, val []byte, flags uint16) uint64 {
	ks.t.Helper()
	tx, err := ks.txns.Begin()
	if err != nil {
		ks.t.Fatal(err)
	}
	meta := access.VersionMeta{Begin: access.VersionMark | tx.ID(), Flags: flags}
	rids, err := ks.idx.Search(encKey(k))
	if err != nil {
		ks.t.Fatal(err)
	}
	if len(rids) > 0 {
		meta.Prev = rids[0]
	}
	rid, err := ks.heap.Insert(tx, access.EncodeVersion(meta, val))
	if err != nil {
		ks.t.Fatal(err)
	}
	if len(rids) == 0 {
		err = ks.idx.InsertTx(tx, encKey(k), rid)
	} else {
		_, err = ks.idx.RepointTx(tx, encKey(k), rids[0], rid)
	}
	if err != nil {
		ks.t.Fatal(err)
	}
	var ts uint64
	tx.OnCommitTS(func(commitTS uint64) error {
		ts = commitTS
		return ks.heap.StampBytes(tx, rid, access.VersionBeginOff, access.EncodeBeginTS(commitTS))
	})
	if err := ks.txns.Commit(tx); err != nil {
		ks.t.Fatal(err)
	}
	return ts
}

func (ks *keyspace) put(k, v string) uint64 { return ks.write(k, []byte(v), 0) }
func (ks *keyspace) del(k string) uint64    { return ks.write(k, nil, access.VersionTombstone) }

// chain walks k's versions newest to oldest.
func (ks *keyspace) chain(k string) (rids []access.RID, begins []uint64, vals []string) {
	ks.t.Helper()
	heads, err := ks.idx.Search(encKey(k))
	if err != nil {
		ks.t.Fatal(err)
	}
	if len(heads) == 0 {
		return nil, nil, nil
	}
	for rid := heads[0]; ; {
		cell, err := ks.heap.Get(rid)
		if err != nil {
			ks.t.Fatalf("chain of %q broken at %v: %v", k, rid, err)
		}
		m, rest, err := access.DecodeVersion(cell)
		if err != nil {
			ks.t.Fatal(err)
		}
		rids, begins, vals = append(rids, rid), append(begins, m.Begin), append(vals, string(rest))
		if !m.HasPrev() {
			return rids, begins, vals
		}
		rid = m.Prev
	}
}

func (ks *keyspace) run() Stats {
	ks.t.Helper()
	st, err := Run(ks.config())
	if err != nil {
		ks.t.Fatalf("vacuum: %v", err)
	}
	return st
}

// TestChainPrunedToHorizon: a chain is cut behind the newest version at
// or below the horizon and no further — the version a registered
// snapshot resolves to, and everything newer, stays.
func TestChainPrunedToHorizon(t *testing.T) {
	ks := newKeyspace(t, 64)
	ks.put("k", "v1")
	ts2 := ks.put("k", "v2")
	snap := ks.txns.Oracle().Snapshot() // pins the horizon at v2
	if snap.ReadTS != ts2 {
		t.Fatalf("snapshot at %d, want %d", snap.ReadTS, ts2)
	}
	ks.put("k", "v3")
	ts4 := ks.put("k", "v4")
	last := ks.put("other", "live") // chainless: not even a candidate

	st := ks.run()
	if st.Horizon != ts2 || st.Keys != 2 || st.Candidates != 1 || st.VersionsReclaimed != 1 || st.KeysRemoved != 0 {
		t.Fatalf("pinned pass: %+v", st)
	}
	if _, _, vals := ks.chain("k"); fmt.Sprint(vals) != "[v4 v3 v2]" {
		t.Fatalf("chain under the snapshot = %v, want [v4 v3 v2]", vals)
	}

	snap.Close()
	st = ks.run()
	if st.Horizon != last || st.VersionsReclaimed != 2 {
		t.Fatalf("unpinned pass: %+v", st)
	}
	if _, begins, vals := ks.chain("k"); fmt.Sprint(vals) != "[v4]" || begins[0] != ts4 {
		t.Fatalf("chain after the snapshot closed = %v at %v", vals, begins)
	}
	if st := ks.run(); st.Candidates != 0 || st.VersionsReclaimed != 0 {
		t.Fatalf("a pruned keyspace still has work: %+v", st)
	}
}

// TestDeadKeyLeavesIndexAndHeap: a key whose head is a committed
// tombstone at or below the horizon goes whole — index entry and every
// slot of its chain — OnKeyRemoved fires once, and its neighbours stay.
func TestDeadKeyLeavesIndexAndHeap(t *testing.T) {
	ks := newKeyspace(t, 64)
	ks.put("dead", "v1")
	ks.put("dead", "v2")
	ks.del("dead")
	ks.put("live", "v1")
	rids, _, _ := ks.chain("dead")
	if len(rids) != 3 {
		t.Fatalf("chain of the deleted key has %d versions, want 3", len(rids))
	}

	st := ks.run()
	if st.KeysRemoved != 1 || st.VersionsReclaimed != 3 || ks.removed != 1 {
		t.Fatalf("pass = %+v, OnKeyRemoved fired %d times", st, ks.removed)
	}
	if heads, err := ks.idx.Search(encKey("dead")); err != nil || len(heads) != 0 {
		t.Fatalf("index still holds the dead key: %v, %v", heads, err)
	}
	for _, rid := range rids {
		if _, err := ks.heap.Get(rid); !errors.Is(err, access.ErrNoSlot) {
			t.Fatalf("slot %v of the dead key: %v, want ErrNoSlot", rid, err)
		}
	}
	if _, _, vals := ks.chain("live"); fmt.Sprint(vals) != "[v1]" {
		t.Fatalf("neighbour chain = %v", vals)
	}
	if n := ks.idx.Len(); n != 1 {
		t.Fatalf("index holds %d entries, want 1", n)
	}
	if st := ks.run(); st.KeysRemoved != 0 || ks.removed != 1 {
		t.Fatalf("second pass = %+v, OnKeyRemoved fired %d times", st, ks.removed)
	}
}

// TestDeadKeyWaitsForSnapshot: while a snapshot older than the delete is
// registered the tombstone is above the horizon, so the entry stays and
// only the tail behind the snapshot's version goes.
func TestDeadKeyWaitsForSnapshot(t *testing.T) {
	ks := newKeyspace(t, 64)
	ks.put("k", "v1")
	ks.put("k", "v2")
	snap := ks.txns.Oracle().Snapshot()
	defer snap.Close()
	ks.del("k")

	st := ks.run()
	if st.KeysRemoved != 0 || st.VersionsReclaimed != 1 || ks.removed != 0 {
		t.Fatalf("pass under a snapshot = %+v, OnKeyRemoved fired %d times", st, ks.removed)
	}
	if _, _, vals := ks.chain("k"); fmt.Sprint(vals) != "[ v2]" {
		t.Fatalf("chain = %q, want the tombstone over v2", vals)
	}
}

// TestBusyKeySkipped: a key whose lock is held is left for a later pass.
func TestBusyKeySkipped(t *testing.T) {
	ks := newKeyspace(t, 64)
	ks.put("k", "v1")
	ks.put("k", "v2")
	locks, owner := ks.txns.Locks(), ks.txns.ReserveID()
	if !locks.TryAcquire(owner, "kv/"+string(encKey("k")), txn.Shared) {
		t.Fatal("lock not granted")
	}
	if st := ks.run(); st.SkippedBusy != 1 || st.VersionsReclaimed != 0 {
		t.Fatalf("pass over a locked key = %+v", st)
	}
	locks.ReleaseAll(owner)
	if st := ks.run(); st.SkippedBusy != 0 || st.VersionsReclaimed != 1 {
		t.Fatalf("pass after the lock drained = %+v", st)
	}
	if n := locks.Locked(); n != 0 {
		t.Fatalf("%d locks outlive the pass", n)
	}
}

// TestFailedStepAbortsAndLeavesChainReadable: a reclamation step that
// fails midway — here a write-back the device refuses once, while the
// tail is being freed — aborts the key's transaction: the sever and the
// frees already done are undone, every version is still reachable with
// its stamp, and the next pass does the work.
func TestFailedStepAbortsAndLeavesChainReadable(t *testing.T) {
	ks := newKeyspace(t, 8)
	// One version per heap page, more pages than the pool has frames:
	// freeing the tail must evict pages the same transaction dirtied.
	const versions = 14
	val := strings.Repeat("x", 3000)
	var want []uint64
	for i := 0; i < versions; i++ {
		want = append([]uint64{ks.put("k", val)}, want...)
	}
	if err := ks.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	tail := ks.log.NextLSN()
	ks.dev.armed.Store(true)
	st, err := Run(ks.config())
	if !errors.Is(err, errInjected) {
		t.Fatalf("vacuum over a failing device: %+v, %v", st, err)
	}
	if ks.log.NextLSN() == tail {
		t.Fatal("the fault hit before any step was logged: nothing was rolled back")
	}
	if st.VersionsReclaimed != 0 {
		t.Fatalf("a failed pass reclaimed %d versions", st.VersionsReclaimed)
	}
	if _, begins, _ := ks.chain("k"); fmt.Sprint(begins) != fmt.Sprint(want) {
		t.Fatalf("chain after the aborted pass = %v, want %v", begins, want)
	}
	if n := ks.txns.ActiveCount(); n != 0 {
		t.Fatalf("%d transactions left open", n)
	}

	if st := ks.run(); st.VersionsReclaimed != versions-1 {
		t.Fatalf("retry pass = %+v", st)
	}
	if _, begins, _ := ks.chain("k"); len(begins) != 1 || begins[0] != want[0] {
		t.Fatalf("chain after the retry = %v", begins)
	}
}
