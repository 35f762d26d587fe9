package replicate

import (
	"testing"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// primaryStack builds a primary with WAL-logged heap.
func primaryStack(t *testing.T) (*access.HeapFile, *wal.Log, *buffer.Manager, *storage.DiskManager) {
	t.Helper()
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(d, 32, buffer.NewLRU())
	fm, err := storage.OpenFileManager(pool)
	if err != nil {
		t.Fatal(err)
	}
	h, err := access.OpenHeap("data", fm, pool)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenDir(wal.NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h.SetLog(l)
	pool.SetBeforeEvict(l.BeforeEvict())
	return h, l, pool, d
}

type testTxn struct {
	id   uint64
	last wal.LSN
}

func (x *testTxn) ID() uint64           { return x.id }
func (x *testTxn) LastLSN() wal.LSN     { return x.last }
func (x *testTxn) Record(r *wal.Record) { x.last = r.LSN }

func TestLogShippingRoundTrip(t *testing.T) {
	h, l, pool, primaryDisk := primaryStack(t)
	replicaDisk, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica("r1", replicaDisk)
	sh := NewShipper(l)
	sh.Attach(rep)

	tx := &testTxn{id: 1}
	rid, err := h.Insert(tx, []byte("replicated-record"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	n, err := sh.Ship()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || rep.AppliedCount() == 0 {
		t.Fatalf("shipped %d applied %d", n, rep.AppliedCount())
	}
	if sh.Lag(rep) != 0 {
		t.Fatalf("lag = %d", sh.Lag(rep))
	}
	// Re-shipping is a no-op (idempotent).
	n, err = sh.Ship()
	if err != nil || n != 0 {
		t.Fatalf("re-ship = %d, %v", n, err)
	}

	// Flush primary so both sides are comparable, then diff the page
	// containing the record.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pbuf := make([]byte, storage.PageSize)
	rbuf := make([]byte, storage.PageSize)
	if err := primaryDisk.ReadPage(rid.Page, pbuf); err != nil {
		t.Fatal(err)
	}
	if err := replicaDisk.ReadPage(rid.Page, rbuf); err != nil {
		t.Fatal(err)
	}
	pp, rp := storage.WrapPage(rid.Page, pbuf), storage.WrapPage(rid.Page, rbuf)
	if string(pp.Payload()) != string(rp.Payload()) {
		t.Fatal("replica payload differs from primary")
	}
}

func TestReplicaLagAndCatchUp(t *testing.T) {
	h, l, _, _ := primaryStack(t)
	replicaDisk, _ := storage.OpenDisk(storage.NewMemDevice())
	rep := NewReplica("r1", replicaDisk)
	sh := NewShipper(l)
	sh.Attach(rep)

	tx := &testTxn{id: 1}
	for i := 0; i < 20; i++ {
		if _, err := h.Insert(tx, []byte("record-payload-xxxxxxxxxxxxxxxx")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if sh.Lag(rep) <= 0 {
		t.Fatal("expected lag before shipping")
	}
	if _, err := sh.Ship(); err != nil {
		t.Fatal(err)
	}
	if sh.Lag(rep) != 0 {
		t.Fatalf("lag after ship = %d", sh.Lag(rep))
	}
}

func TestMultipleReplicasAndDetach(t *testing.T) {
	h, l, _, _ := primaryStack(t)
	d1, _ := storage.OpenDisk(storage.NewMemDevice())
	d2, _ := storage.OpenDisk(storage.NewMemDevice())
	r1 := NewReplica("r1", d1)
	r2 := NewReplica("r2", d2)
	sh := NewShipper(l)
	sh.Attach(r1)
	sh.Attach(r2)
	if got := sh.Replicas(); len(got) != 2 {
		t.Fatalf("replicas = %v", got)
	}
	tx := &testTxn{id: 1}
	if _, err := h.Insert(tx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_ = l.Flush(l.NextLSN())
	if _, err := sh.Ship(); err != nil {
		t.Fatal(err)
	}
	if r1.AppliedCount() != r2.AppliedCount() || r1.AppliedCount() == 0 {
		t.Fatalf("applied: %d vs %d", r1.AppliedCount(), r2.AppliedCount())
	}
	sh.Detach("r1")
	if got := sh.Replicas(); len(got) != 1 || got[0] != "r2" {
		t.Fatalf("after detach = %v", got)
	}
}

func TestPromotion(t *testing.T) {
	d, _ := storage.OpenDisk(storage.NewMemDevice())
	rep := NewReplica("r1", d)
	if rep.Role() != RoleReplica || rep.Role().String() != "replica" {
		t.Fatal("initial role")
	}
	rep.Promote()
	if rep.Role() != RolePrimary || rep.Role().String() != "primary" {
		t.Fatal("promotion failed")
	}
	if rep.Name() != "r1" {
		t.Fatal("name")
	}
}

func TestShipperStop(t *testing.T) {
	_, l, _, _ := primaryStack(t)
	sh := NewShipper(l)
	sh.Stop()
	if _, err := sh.Ship(); err == nil {
		t.Fatal("ship after stop must fail")
	}
}
