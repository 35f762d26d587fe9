package txn

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/undo"
	"repro/internal/wal"
)

func TestLockSharedCompatible(t *testing.T) {
	lm := NewLockManager()
	ctx := context.Background()
	if err := lm.Acquire(ctx, 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, 2, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if m, ok := lm.Held(1, "r"); !ok || m != Shared {
		t.Fatalf("held = %v, %v", m, ok)
	}
	if lm.Locked() != 1 {
		t.Fatalf("Locked = %d", lm.Locked())
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	if lm.Locked() != 0 {
		t.Fatal("locks remain")
	}
}

func TestLockExclusiveBlocksAndWakes(t *testing.T) {
	lm := NewLockManager()
	ctx := context.Background()
	if err := lm.Acquire(ctx, 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		acquired <- lm.Acquire(ctx, 2, "r", Exclusive)
	}()
	select {
	case err := <-acquired:
		t.Fatalf("acquire should block, got %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestLockReentrantAndIdempotent(t *testing.T) {
	lm := NewLockManager()
	ctx := context.Background()
	if err := lm.Acquire(ctx, 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring (same or weaker) succeeds immediately.
	if err := lm.Acquire(ctx, 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
}

func TestLockUpgrade(t *testing.T) {
	lm := NewLockManager()
	ctx := context.Background()
	if err := lm.Acquire(ctx, 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	// Upgrade with no other holders succeeds.
	if err := lm.Acquire(ctx, 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	if m, _ := lm.Held(1, "r"); m != Exclusive {
		t.Fatalf("mode = %v", m)
	}
}

func TestDeadlockDetection(t *testing.T) {
	lm := NewLockManager()
	ctx := context.Background()
	if err := lm.Acquire(ctx, 1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, 2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- lm.Acquire(ctx, 1, "b", Exclusive) // 1 waits for 2
	}()
	time.Sleep(20 * time.Millisecond)
	// 2 -> a closes the cycle; one of the two must get ErrDeadlock.
	err2 := lm.Acquire(ctx, 2, "a", Exclusive)
	if errors.Is(err2, ErrDeadlock) {
		lm.ReleaseAll(2)
	} else if err2 != nil {
		t.Fatalf("unexpected: %v", err2)
	} else {
		lm.ReleaseAll(2)
	}
	lm.ReleaseAll(1)
	wg.Wait()
	err1 := <-errs
	if !errors.Is(err1, ErrDeadlock) && !errors.Is(err2, ErrDeadlock) && err1 != nil {
		t.Fatalf("no deadlock detected: %v / %v", err1, err2)
	}
}

func TestLockContextCancel(t *testing.T) {
	lm := NewLockManager()
	ctx := context.Background()
	if err := lm.Acquire(ctx, 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	err := lm.Acquire(cctx, 2, "r", Exclusive)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestReleaseErrors(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Release(1, "r"); err == nil {
		t.Fatal("releasing an unknown resource succeeded")
	}
	_ = lm.Acquire(context.Background(), 1, "r", Shared)
	if err := lm.Release(2, "r"); err == nil {
		t.Fatal("releasing another txn's lock succeeded")
	}
	if err := lm.Release(1, "r"); err != nil {
		t.Fatal(err)
	}
}

// testEngine builds heap + wal + txn manager over one disk.
func testEngine(t *testing.T) (*Manager, *access.HeapFile, *buffer.Manager, *wal.Log) {
	t.Helper()
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	return testEngineOn(t, d)
}

// testEngineOn builds heap + wal + txn manager over store.
func testEngineOn(t *testing.T, store storage.PageStore) (*Manager, *access.HeapFile, *buffer.Manager, *wal.Log) {
	t.Helper()
	pool := buffer.New(store, 32, buffer.NewLRU())
	fm, err := storage.OpenFileManager(pool)
	if err != nil {
		t.Fatal(err)
	}
	h, err := access.OpenHeap("t", fm, pool)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenDir(wal.NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h.SetLog(l)
	pool.SetBeforeEvict(l.BeforeEvict())
	m := NewManager(l, pool)
	// Heap mutations log logical undo descriptors; rollback executes
	// them through the undo executor, exactly as the full engine wires
	// it.
	ex := undo.NewExecutor(pool, l)
	ex.SetSystemTxns(m.SystemHooksHeldLatches())
	m.SetUndoHandler(ex)
	return m, h, pool, l
}

func TestTxnCommit(t *testing.T) {
	m, h, _, l := testEngine(t)
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert(tx, []byte("committed"))
	if err != nil {
		t.Fatal(err)
	}
	if tx.Updates() != 1 {
		t.Fatalf("updates = %d", tx.Updates())
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if tx.Status() != StatusCommitted {
		t.Fatalf("status = %v", tx.Status())
	}
	// Commit forces the log: update and commit durable, and no begin
	// record before them.
	n := 0
	_ = l.Iterate(wal.ZeroLSN, func(r *wal.Record) error { n++; return nil })
	if n != 2 {
		t.Fatalf("durable records = %d", n)
	}
	if got, err := h.Get(rid); err != nil || string(got) != "committed" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Double commit fails.
	if err := m.Commit(tx); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("err = %v", err)
	}
	if m.ActiveCount() != 0 {
		t.Fatal("txn still active")
	}
}

func TestTxnAbortRollsBack(t *testing.T) {
	m, h, _, _ := testEngine(t)
	// Committed baseline row.
	tx0, _ := m.Begin()
	rid0, err := h.Insert(tx0, []byte("keep"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx0); err != nil {
		t.Fatal(err)
	}

	tx, _ := m.Begin()
	if _, err := h.Insert(tx, []byte("discard-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert(tx, []byte("discard-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Update(tx, rid0, []byte("mutated")); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if tx.Status() != StatusAborted {
		t.Fatalf("status = %v", tx.Status())
	}
	// All effects gone; baseline intact.
	count, err := h.Count()
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	got, err := h.Get(rid0)
	if err != nil || string(got) != "keep" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := m.Abort(tx); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double abort err = %v", err)
	}
}

func TestTxnLockIntegration(t *testing.T) {
	m, _, _, _ := testEngine(t)
	ctx := context.Background()
	tx1, _ := m.Begin()
	tx2, _ := m.Begin()
	if err := tx1.Lock(ctx, "table:users", Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tx2.Lock(ctx, "table:users", Exclusive) }()
	select {
	case <-done:
		t.Fatal("tx2 should block")
	case <-time.After(30 * time.Millisecond):
	}
	// Commit releases tx1's locks; tx2 proceeds.
	if err := m.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(tx2); err != nil {
		t.Fatal(err)
	}
	// Locks on finished txns fail.
	if err := tx1.Lock(ctx, "x", Shared); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatusString(t *testing.T) {
	if StatusActive.String() != "active" || StatusCommitted.String() != "committed" ||
		StatusAborted.String() != "aborted" || Status(9).String() != "status(9)" {
		t.Fatal("status strings")
	}
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("mode strings")
	}
}

func TestConcurrentTransfers(t *testing.T) {
	// Bank-transfer style workload: concurrent txns move value between
	// two records under exclusive locks; the sum must be conserved.
	m, h, _, _ := testEngine(t)
	ridA, err := h.Insert(nil, access.EncodeRow(access.Row{access.NewInt(500)}))
	if err != nil {
		t.Fatal(err)
	}
	ridB, err := h.Insert(nil, access.EncodeRow(access.Row{access.NewInt(500)}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tx, err := m.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Lock(ctx, "account", Exclusive); err != nil {
					_ = m.Abort(tx)
					continue
				}
				get := func(rid access.RID) int64 {
					raw, _ := h.Get(rid)
					row, _ := access.DecodeRow(raw)
					return row[0].Int
				}
				a, b := get(ridA), get(ridB)
				amount := int64(w + 1)
				if _, err := h.Update(tx, ridA, access.EncodeRow(access.Row{access.NewInt(a - amount)})); err != nil {
					t.Error(err)
					_ = m.Abort(tx)
					return
				}
				if _, err := h.Update(tx, ridB, access.EncodeRow(access.Row{access.NewInt(b + amount)})); err != nil {
					t.Error(err)
					_ = m.Abort(tx)
					return
				}
				if i%5 == 0 {
					if err := m.Abort(tx); err != nil {
						t.Error(err)
						return
					}
				} else if err := m.Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	raws, _ := h.Get(ridA)
	rowA, _ := access.DecodeRow(raws)
	raws, _ = h.Get(ridB)
	rowB, _ := access.DecodeRow(raws)
	if rowA[0].Int+rowB[0].Int != 1000 {
		t.Fatalf("sum = %d, money created/destroyed", rowA[0].Int+rowB[0].Int)
	}
}

// TestFuzzyCheckpointWithActiveTxn: a fuzzy checkpoint runs while a
// transaction is in flight, records it in the checkpoint's ATT, and
// keeps the recovery-begin LSN at or below the transaction's first
// record so its undo history is never truncated.
func TestFuzzyCheckpointWithActiveTxn(t *testing.T) {
	m, h, _, l := testEngine(t)
	tx, _ := m.Begin()
	if _, err := h.Insert(tx, []byte("in-flight at checkpoint")); err != nil {
		t.Fatal(err)
	}
	ck, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("fuzzy checkpoint with an active txn: %v", err)
	}
	if l.LastCheckpoint() != ck {
		t.Fatalf("checkpoint = %d, want %d", l.LastCheckpoint(), ck)
	}
	if rb := l.RecoveryBegin(); rb > tx.LastLSN() {
		t.Fatalf("recovery begin %d is above the active txn's records (%d)", rb, tx.LastLSN())
	}
	// The checkpoint record carries the transaction in its ATT.
	var data wal.CheckpointData
	err = l.Iterate(ck, func(r *wal.Record) error {
		if r.LSN == ck && r.Type == wal.RecCheckpoint {
			data, err = wal.DecodeCheckpoint(r.After)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range data.ATT {
		if e.ID == tx.ID() {
			found = true
			if e.First == wal.ZeroLSN || e.First > e.Last {
				t.Fatalf("ATT entry %+v has bad LSN range", e)
			}
		}
	}
	if !found {
		t.Fatalf("active txn %d missing from checkpoint ATT %+v", tx.ID(), data.ATT)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzyCheckpointBoundsRecoveryScan: work committed and flushed
// before a quiescent-moment checkpoint is excluded from the next
// recovery scan.
func TestFuzzyCheckpointBoundsRecoveryScan(t *testing.T) {
	m, h, pool, l := testEngine(t)
	tx, _ := m.Begin()
	if _, err := h.Insert(tx, []byte("pre-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ck, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if rb := l.RecoveryBegin(); rb < ck {
		t.Fatalf("recovery begin %d should reach the checkpoint %d with nothing dirty", rb, ck)
	}
	tx2, _ := m.Begin()
	if _, err := h.Insert(tx2, []byte("post-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Recover(l, pool)
	if err != nil {
		t.Fatal(err)
	}
	// Only the checkpoint record and txn 2's records are scanned.
	if st.Scanned > 4 {
		t.Fatalf("scanned %d records, checkpoint did not bound the scan", st.Scanned)
	}
	if st.Committed != 1 {
		t.Fatalf("committed = %d", st.Committed)
	}
}

// healableStore fails every page write and sync while down is set.
type healableStore struct {
	storage.PageStore
	down atomic.Bool
}

var errStoreDown = errors.New("store down")

func (s *healableStore) WritePage(id storage.PageID, data []byte) error {
	if s.down.Load() {
		return errStoreDown
	}
	return s.PageStore.WritePage(id, data)
}

func (s *healableStore) Sync() error {
	if s.down.Load() {
		return errStoreDown
	}
	return s.PageStore.Sync()
}

// TestCheckpointFlushErrorReturnedToCaller: a checkpoint whose snapshot
// flush fails returns that error and leaves the manifest — recovery-begin
// and the last checkpoint — where it was. Once the store heals, the next
// checkpoint succeeds and advances recovery-begin: no failure is held
// back for a later call.
func TestCheckpointFlushErrorReturnedToCaller(t *testing.T) {
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	store := &healableStore{PageStore: d}
	m, h, pool, l := testEngineOn(t, store)
	tx, _ := m.Begin()
	if _, err := h.Insert(tx, []byte("dirty at checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if len(pool.DirtyPages()) == 0 {
		t.Fatal("no dirty pages: the checkpoint would have nothing to flush")
	}
	begin, last := l.RecoveryBegin(), l.LastCheckpoint()

	store.down.Store(true)
	if _, err := m.Checkpoint(); !errors.Is(err, errStoreDown) {
		t.Fatalf("checkpoint over a failing store = %v, want %v", err, errStoreDown)
	}
	if rb, ck := l.RecoveryBegin(), l.LastCheckpoint(); rb != begin || ck != last {
		t.Fatalf("failed checkpoint moved the manifest: recovery begin %d -> %d, checkpoint %d -> %d", begin, rb, last, ck)
	}

	store.down.Store(false)
	ck, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint on the healed store: %v", err)
	}
	if l.LastCheckpoint() != ck {
		t.Fatalf("checkpoint = %d, want %d", l.LastCheckpoint(), ck)
	}
	if rb := l.RecoveryBegin(); rb <= begin {
		t.Fatalf("recovery begin %d did not advance past %d", rb, begin)
	}
	if n := len(pool.DirtyPages()); n != 0 {
		t.Fatalf("%d pages still dirty after a completed checkpoint", n)
	}
}

// TestAbortThenCrashRecovery: a transaction aborts at runtime (logging
// compensation records), then the machine crashes before the restored
// pages are written back. Recovery must replay the abort — updates plus
// compensations — so the committed baseline survives and the aborted
// bytes do not.
func TestAbortThenCrashRecovery(t *testing.T) {
	dev := storage.NewMemDevice()
	logDir := wal.NewMemSegmentDir()
	d, _ := storage.OpenDisk(dev)
	pool := buffer.New(d, 32, buffer.NewLRU())
	l, _ := wal.OpenDir(logDir, 0)
	fm, _ := storage.OpenFileManager(pool)
	h, _ := access.OpenHeap("t", fm, pool)
	h.SetLog(l)
	pool.SetBeforeEvict(l.BeforeEvict())
	m := NewManager(l, pool)
	fm.SetLogger(m.PageLogger())
	ex := undo.NewExecutor(pool, l)
	ex.SetSystemTxns(m.SystemHooksHeldLatches())
	m.SetUndoHandler(ex)

	tx0, _ := m.Begin()
	rid, err := h.Insert(tx0, []byte("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx0); err != nil {
		t.Fatal(err)
	}

	tx1, _ := m.Begin()
	if _, err := h.Update(tx1, rid, []byte("doomed!!")); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(tx1); err != nil {
		t.Fatal(err)
	}
	// A later committed write on the same page, after the rollback.
	tx2, _ := m.Begin()
	if _, err := h.Insert(tx2, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	// Crash: nothing written back.

	d2, _ := storage.OpenDisk(dev)
	l2, _ := wal.OpenDir(logDir, 0)
	if _, err := wal.Recover(l2, d2); err != nil {
		t.Fatal(err)
	}
	pool2 := buffer.New(d2, 32, buffer.NewLRU())
	fm2, err := storage.OpenFileManager(pool2)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := access.OpenHeap("t", fm2, pool2)
	got, err := h2.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "baseline" {
		t.Fatalf("recovered record = %q, want the pre-abort baseline", got)
	}
	count, err := h2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("recovered count = %d, want baseline + survivor", count)
	}
}
