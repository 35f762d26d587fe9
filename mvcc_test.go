package sbdms

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/txn"
)

// --- snapshot visibility -------------------------------------------------

// TestMVCCSnapshotIgnoresUncommitted: a snapshot read resolves a key's
// version chain past a concurrent transaction's uncommitted version to
// the newest committed one, and neither a point read nor a scan sees
// uncommitted inserts — without blocking on the writer's locks.
func TestMVCCSnapshotIgnoresUncommitted(t *testing.T) {
	db := openIsoDB(t)
	defer db.Close(context.Background())
	ctx := context.Background()

	if err := db.Put(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	tx, err := db.kv.txns.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Lock(ctx, kvRes("k"), txn.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := tx.Lock(ctx, kvRes("fresh"), txn.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := db.kv.putTx(tx, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := db.kv.putTx(tx, "fresh", []byte("new")); err != nil {
		t.Fatal(err)
	}

	// The writer holds X locks on both keys; a snapshot read must
	// neither block nor see its versions.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, err := db.GetSnapshot(ctx, "k"); err != nil || string(got) != "v1" {
			t.Errorf("GetSnapshot under uncommitted update = %q, %v; want v1", got, err)
		}
		if _, err := db.GetSnapshot(ctx, "fresh"); !IsKeyNotFound(err) {
			t.Errorf("GetSnapshot of uncommitted insert: %v, want not-found", err)
		}
		if keys, err := db.ScanKeys(ctx, "", 10); err != nil || len(keys) != 1 || keys[0] != "k" {
			t.Errorf("ScanKeys under uncommitted insert = %q, %v; want [k]", keys, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot read blocked behind a writer's key lock")
	}

	if err := db.kv.txns.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if got, err := db.GetSnapshot(ctx, "k"); err != nil || string(got) != "v2" {
		t.Fatalf("GetSnapshot after commit = %q, %v; want v2", got, err)
	}
	if got, err := db.GetSnapshot(ctx, "fresh"); err != nil || string(got) != "new" {
		t.Fatalf("GetSnapshot of committed insert = %q, %v; want new", got, err)
	}
}

// TestMVCCSnapshotSeesDeleteOrder: a tombstone committed before the
// snapshot hides the key; versions below the tombstone stay readable
// for older snapshots until vacuumed.
func TestMVCCSnapshotTombstone(t *testing.T) {
	db := openIsoDB(t)
	defer db.Close(context.Background())

	if err := db.Put(ctx, "gone", []byte("was-here")); err != nil {
		t.Fatal(err)
	}
	// Pin a snapshot predating the delete.
	old := db.kv.oracle.Snapshot()
	defer old.Close()
	if err := db.DeleteKey(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetSnapshot(ctx, "gone"); !IsKeyNotFound(err) {
		t.Fatalf("GetSnapshot after committed delete: %v, want not-found", err)
	}
	// The pinned snapshot still resolves through the tombstone to the
	// old value.
	rids, err := db.kv.idx.Search(db.kv.key("gone"))
	if err != nil || len(rids) == 0 {
		t.Fatalf("ghost index entry missing: %v", err)
	}
	v, ok, retry, err := db.kv.readVisible("gone", rids[0], old.ReadTS)
	if err != nil || retry || !ok || string(v) != "was-here" {
		t.Fatalf("old snapshot read = %q ok=%v retry=%v err=%v; want was-here", v, ok, retry, err)
	}
}

// TestMVCCSnapshotConsistentCut: a scan must see an atomic batch
// entirely or not at all, even while batches commit under it, and
// without blocking on the batch's key locks. Both scan entry points read
// one MVCC snapshot: ScanKeysSnapshot, and ScanKeys, the scan of the
// kvops table, `sbdmsctl scan` and the cluster router.
func TestMVCCSnapshotConsistentCut(t *testing.T) {
	for _, sc := range []struct {
		name string
		scan func(db *DB, from string, n int) ([]string, error)
	}{
		{"ScanKeysSnapshot", func(db *DB, from string, n int) ([]string, error) { return db.ScanKeysSnapshot(ctx, from, n) }},
		{"ScanKeys", func(db *DB, from string, n int) ([]string, error) { return db.ScanKeys(ctx, from, n) }},
	} {
		t.Run(sc.name, func(t *testing.T) {
			db := openIsoDB(t)
			defer db.Close(context.Background())
			torn, landed := runTornBatchRounds(t, db, func(from string, n int) ([]string, error) {
				return sc.scan(db, from, n)
			})
			if torn > 0 {
				t.Fatalf("%d snapshot scans saw half an atomic batch", torn)
			}
			if landed == 0 {
				t.Log("no scan landed inside an in-flight batch; consistency not exercised this run")
			}
		})
	}
}

// runTornBatchRounds drives atomic PutBatches — each one's first and
// last keys at opposite ends of a filler range, with 30 keys between, so
// a batch takes long enough for a scan to land inside it — against a
// full-range scanner. A scan that reports one endpoint of a batch but
// not the other has read a state no serial execution produces, and the
// scan begun after PutBatch returned must list the batch. It returns
// the torn scans and the scans that saw an in-flight batch cleanly
// absent.
func runTornBatchRounds(t *testing.T, db *DB, scan func(from string, n int) ([]string, error)) (torn, landed int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if err := db.Put(ctx, fmt.Sprintf("sn-m-%04d", i), []byte("filler")); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 200 && landed < 25; r++ {
		lo := fmt.Sprintf("sn-a-%06d", r)
		hi := fmt.Sprintf("sn-z-%06d", r)
		keys := []string{lo}
		for i := 0; i < 30; i++ {
			keys = append(keys, fmt.Sprintf("sn-n-%06d-%02d", r, i))
		}
		keys = append(keys, hi)
		vals := make([][]byte, len(keys))
		for i := range vals {
			vals[i] = []byte("v")
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := db.PutBatch(ctx, keys, vals); err != nil {
				t.Errorf("PutBatch: %v", err)
			}
		}()
		for scanning := true; scanning; {
			select {
			case <-done:
				scanning = false
			default:
			}
			got, err := scan("sn-", 100000)
			if err != nil {
				t.Fatal(err)
			}
			sawLo, sawHi := false, false
			for _, k := range got {
				if k == lo {
					sawLo = true
				}
				if k == hi {
					sawHi = true
				}
			}
			switch {
			case sawLo != sawHi:
				torn++
			case !sawLo && !scanning:
				t.Errorf("round %d: a scan begun after PutBatch returned missed the batch", r)
			case !sawLo:
				landed++ // scanned while the batch was still in flight
			}
		}
	}
	return torn, landed
}

// TestMVCCScanHoldsAckedWrites: a commit is acknowledged only once every
// older commit timestamp has completed, so a Put racing an older commit
// still in flight does not return until that one completes, and the
// scan after it lists the key. If the engine goes offline with the
// older commit in doubt, the waiting Put fails instead of hanging.
func TestMVCCScanHoldsAckedWrites(t *testing.T) {
	db := openIsoDB(t)
	defer db.Close(context.Background())
	put := func(v string) <-chan error {
		res := make(chan error, 1)
		go func() { res <- db.Put(ctx, "acked", []byte(v)) }()
		return res
	}
	wait := func(res <-chan error) error {
		select {
		case err := <-res:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("Put never returned")
			return nil
		}
	}

	inflight := db.kv.oracle.AllocateCommitTS() // an older commit still forcing its log
	res := put("v")
	select {
	case err := <-res:
		t.Fatalf("Put returned (%v) ahead of an older commit still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	db.kv.oracle.Complete(inflight)
	if err := wait(res); err != nil {
		t.Fatal(err)
	}
	if keys, err := db.ScanKeys(ctx, "", 10); err != nil || len(keys) != 1 || keys[0] != "acked" {
		t.Fatalf("ScanKeys after the acknowledgement = %q, %v; want [acked]", keys, err)
	}

	db.kv.oracle.AllocateCommitTS() // never completes
	res = put("v2")
	time.Sleep(20 * time.Millisecond)
	db.kv.poison(errors.New("commit left in doubt"))
	if err := wait(res); err == nil {
		t.Fatal("Put acknowledged while an older commit was left in doubt")
	}
}

// TestMVCCAckedWriteVisibleToEveryRead: with an older commit timestamp
// in flight, a Put, then a read on the same node — each read sees the
// write. The older timestamp completes 50 ms later, on its own; a Put
// acknowledged ahead of it would leave a snapshot read below the write.
func TestMVCCAckedWriteVisibleToEveryRead(t *testing.T) {
	reads := map[string]func(db *DB) error{
		"Get": func(db *DB) error {
			v, err := db.Get(ctx, "acked")
			if err == nil && string(v) != "v" {
				err = fmt.Errorf("Get = %q, want v", v)
			}
			return err
		},
		"GetSnapshot": func(db *DB) error {
			v, err := db.GetSnapshot(ctx, "acked")
			if err == nil && string(v) != "v" {
				err = fmt.Errorf("GetSnapshot = %q, want v", v)
			}
			return err
		},
		"ScanKeysSnapshot": func(db *DB) error {
			keys, err := db.ScanKeysSnapshot(ctx, "", 10)
			if err == nil && (len(keys) != 1 || keys[0] != "acked") {
				err = fmt.Errorf("ScanKeysSnapshot = %q, want [acked]", keys)
			}
			return err
		},
		"ScanKeys": func(db *DB) error {
			keys, err := db.ScanKeys(ctx, "", 10)
			if err == nil && (len(keys) != 1 || keys[0] != "acked") {
				err = fmt.Errorf("ScanKeys = %q, want [acked]", keys)
			}
			return err
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			db := openIsoDB(t)
			defer db.Close(context.Background())
			inflight := db.kv.oracle.AllocateCommitTS()
			completed := make(chan struct{})
			go func() {
				time.Sleep(50 * time.Millisecond)
				db.kv.oracle.Complete(inflight)
				close(completed)
			}()
			err := db.Put(ctx, "acked", []byte("v"))
			if err == nil {
				err = read(db)
			}
			<-completed
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- write-write conflicts ----------------------------------------------

// TestMVCCWriteWriteConflictAborts: MVCC reads are lock-free, but
// writers keep strict per-key 2PL — two transactions updating the same
// keys in opposite orders still deadlock, and the victim aborts with a
// retryable conflict while the survivor commits.
func TestMVCCWriteWriteConflictAborts(t *testing.T) {
	db := openIsoDB(t)
	defer db.Close(context.Background())
	ctx := context.Background()

	for _, k := range []string{"ww-1", "ww-2"} {
		if err := db.Put(ctx, k, []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	tx1, err := db.kv.txns.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := db.kv.txns.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Lock(ctx, kvRes("ww-1"), txn.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Lock(ctx, kvRes("ww-2"), txn.Exclusive); err != nil {
		t.Fatal(err)
	}
	type waitResult struct {
		tx  *txn.Txn
		err error
	}
	results := make(chan waitResult, 2)
	go func() {
		results <- waitResult{tx1, tx1.Lock(ctx, kvRes("ww-2"), txn.Exclusive)}
	}()
	go func() {
		results <- waitResult{tx2, tx2.Lock(ctx, kvRes("ww-1"), txn.Exclusive)}
	}()
	// Neither wait can be granted while both base locks are held, so the
	// first result is always the deadlock victim's refusal — whichever
	// goroutine enqueued second and closed the cycle.
	first := <-results
	if !errors.Is(first.err, txn.ErrDeadlock) {
		t.Fatalf("expected one deadlock victim, got %v", first.err)
	}
	// The victim aborts; the survivor's wait is granted, it writes and
	// commits.
	victim, survivor, sk := first.tx, tx2, "ww-1"
	if victim == tx2 {
		survivor, sk = tx1, "ww-2"
	}
	if err := db.kv.txns.Abort(victim); err != nil {
		t.Fatal(err)
	}
	if second := <-results; second.err != nil {
		t.Fatalf("survivor's lock wait failed: %v", second.err)
	}
	if err := db.kv.putTx(survivor, sk, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := db.kv.txns.Commit(survivor); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get(ctx, sk); err != nil || string(got) != "v1" {
		t.Fatalf("survivor's write = %q, %v; want v1", got, err)
	}
}

// --- vacuum --------------------------------------------------------------

// TestMVCCVacuumReclaims: updates grow version chains and deletes
// leave ghost entries; a vacuum pass with no snapshots live prunes
// every chain to its newest version and removes dead keys entirely —
// heap slot count equals live key count afterwards, and reads are
// unaffected.
func TestMVCCVacuumReclaims(t *testing.T) {
	db := openIsoDB(t)
	defer db.Close(context.Background())

	const keys = 40
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("vac-%03d", i)
		for v := 0; v < 4; v++ {
			if err := db.Put(ctx, k, []byte(fmt.Sprintf("v%d", v))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < keys; i += 2 {
		if err := db.DeleteKey(ctx, fmt.Sprintf("vac-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := db.kv.heap.Count()
	if err != nil {
		t.Fatal(err)
	}
	if before <= keys {
		t.Fatalf("heap holds %d cells before vacuum; chains missing", before)
	}

	st, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if st.KeysRemoved != keys/2 {
		t.Fatalf("KeysRemoved = %d, want %d", st.KeysRemoved, keys/2)
	}
	if st.SkippedBusy != 0 || st.SkippedUncommitted != 0 {
		t.Fatalf("idle vacuum skipped work: %+v", st)
	}
	after, err := db.kv.heap.Count()
	if err != nil {
		t.Fatal(err)
	}
	if after != keys/2 {
		t.Fatalf("heap holds %d cells after vacuum, want %d (one per live key)", after, keys/2)
	}
	if got := kvLen(t, db); got != keys/2 {
		t.Fatalf("KVLen after vacuum = %d, want %d", got, keys/2)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("vac-%03d", i)
		got, err := db.Get(ctx, k)
		sgot, serr := db.GetSnapshot(ctx, k)
		if i%2 == 0 {
			if !IsKeyNotFound(err) || !IsKeyNotFound(serr) {
				t.Fatalf("deleted %q after vacuum: %v / %v", k, err, serr)
			}
		} else if err != nil || string(got) != "v3" || serr != nil || string(sgot) != "v3" {
			t.Fatalf("%q after vacuum = %q,%v / %q,%v; want v3", k, got, err, sgot, serr)
		}
	}
	// A reclaimed key is re-insertable (the gap protocol sees a clean
	// absence, not a ghost).
	if err := db.Put(ctx, "vac-000", []byte("back")); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get(ctx, "vac-000"); err != nil || string(got) != "back" {
		t.Fatalf("reinsert after vacuum = %q, %v", got, err)
	}
}

// TestMVCCVacuumRespectsHorizon: a live snapshot pins every version it
// can resolve to. Vacuum with the snapshot open must keep the pinned
// versions readable; after the snapshot closes, a second pass reclaims
// them.
func TestMVCCVacuumRespectsHorizon(t *testing.T) {
	db := openIsoDB(t)
	defer db.Close(context.Background())

	if err := db.Put(ctx, "pin", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(ctx, "doomed", []byte("short-lived")); err != nil {
		t.Fatal(err)
	}
	snap := db.kv.oracle.Snapshot()
	defer snap.Close()
	for i := 0; i < 3; i++ {
		if err := db.Put(ctx, "pin", []byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteKey(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}

	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	// The snapshot's versions survived: "pin" still resolves to its
	// old value, the deleted key's pre-delete value is still there.
	for k, want := range map[string]string{"pin": "old", "doomed": "short-lived"} {
		rids, err := db.kv.idx.Search(db.kv.key(k))
		if err != nil || len(rids) == 0 {
			t.Fatalf("%q unreachable after horizon-bounded vacuum: %v", k, err)
		}
		v, ok, retry, err := db.kv.readVisible(k, rids[0], snap.ReadTS)
		if err != nil || retry || !ok || string(v) != want {
			t.Fatalf("snapshot read of %q after vacuum = %q ok=%v retry=%v err=%v; want %q",
				k, v, ok, retry, err, want)
		}
	}
	// Current reads see the new world.
	if got, err := db.Get(ctx, "pin"); err != nil || string(got) != "new-2" {
		t.Fatalf("current read of pin = %q, %v", got, err)
	}

	snap.Close()
	st, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if st.KeysRemoved != 1 {
		t.Fatalf("post-release vacuum removed %d keys, want 1 (doomed)", st.KeysRemoved)
	}
	n, err := db.kv.heap.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("heap holds %d cells after full vacuum, want 1", n)
	}
}

// --- stress (the `make mvcc` workload) -----------------------------------

// TestMVCCStressSnapshotVacuum runs writers (updates and
// delete/reinsert cycles), lock-free snapshot readers, and a
// continuous vacuum against each other. Snapshot scans must never see
// half an atomic pair; snapshot gets must always return a value some
// commit actually wrote; the engine must end consistent.
func TestMVCCStressSnapshotVacuum(t *testing.T) {
	db := openIsoDB(t)
	defer db.Close(context.Background())

	const (
		pairs   = 8
		writers = 4
	)
	deadline := time.Now().Add(2 * time.Second)
	if testing.Short() {
		deadline = time.Now().Add(300 * time.Millisecond)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writers: each round writes pair keys pa-i-r / pz-i-r atomically
	// (one batch), then deletes a previous round's pair one key at a
	// time — presence of exactly one pair member is only legal for
	// DELETES in flight, so scans assert on the insert pairs only.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; !stop.Load(); r++ {
				lo := fmt.Sprintf("pa-%d-%06d", w, r)
				hi := fmt.Sprintf("pz-%d-%06d", w, r)
				err := db.PutBatch(ctx, []string{lo, hi}, [][]byte{[]byte("v"), []byte("v")})
				if err != nil && !IsConflict(err) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if r >= 3 {
					// Delete pz before pa: the pair's members go in two
					// transactions, so a scan CAN land between them — the
					// legal half-state is pa-without-pz, which keeps
					// "pz present ⇒ pa present" an invariant.
					old := r - 3
					for _, k := range []string{fmt.Sprintf("pz-%d-%06d", w, old), fmt.Sprintf("pa-%d-%06d", w, old)} {
						if err := db.DeleteKey(ctx, k); err != nil && !IsConflict(err) && !IsKeyNotFound(err) {
							t.Errorf("writer %d delete: %v", w, err)
							return
						}
					}
				}
				// Hot keys grow chains for the vacuum to chew through.
				k := fmt.Sprintf("hot-%d", r%pairs)
				if err := db.Put(ctx, k, []byte(fmt.Sprintf("w%d-r%d", w, r))); err != nil && !IsConflict(err) {
					t.Errorf("writer %d hot put: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Snapshot scanners: an insert pair must appear entirely or not at
	// all. (Delete pairs are removed key-by-key, so only the pa-
	// without-pz direction is a violation: deletes run pa first.)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			keys, err := db.ScanKeysSnapshot(ctx, "p", 100000)
			if err != nil {
				t.Errorf("snapshot scan: %v", err)
				return
			}
			seen := map[string]bool{}
			for _, k := range keys {
				seen[k] = true
			}
			for _, k := range keys {
				if len(k) > 1 && k[1] == 'z' {
					if !seen["pa"+k[2:]] {
						t.Errorf("snapshot scan saw %s without pa%s", k, k[2:])
						return
					}
				}
			}
		}
	}()

	// Snapshot point readers on the hot keys: never block, never see
	// garbage (any committed value is fine, a decode error is not).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			k := fmt.Sprintf("hot-%d", i%pairs)
			if _, err := db.GetSnapshot(ctx, k); err != nil && !IsKeyNotFound(err) {
				t.Errorf("snapshot get %q: %v", k, err)
				return
			}
		}
	}()

	// The scavenger, as fast as it can go.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := db.Vacuum(); err != nil {
				t.Errorf("vacuum: %v", err)
				return
			}
		}
	}()

	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce: a final vacuum must shrink the heap to exactly one cell
	// per live key.
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	live, err := db.ScanKeys(ctx, "", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := kvLen(t, db); got != uint64(len(live)) {
		t.Fatalf("KVLen = %d but scan found %d keys", got, len(live))
	}
	cells, err := db.kv.heap.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cells != len(live) {
		t.Fatalf("heap holds %d cells after final vacuum, want %d (one per live key)", cells, len(live))
	}
}
