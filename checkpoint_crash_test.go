package sbdms

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/wal"
)

// --- WAL-side crash injection ------------------------------------------

// crashGate is a write budget shared by every device of a fault
// segment dir: once exhausted, the whole log "loses power" — the
// crashing write is dropped (or torn), and every later access fails.
type crashGate struct {
	mu      sync.Mutex
	arm     int64 // writes still allowed; -1 = disarmed
	tear    int   // bytes of the crashing write to apply
	crashed bool
}

func (g *crashGate) allowWrite() (tear int, crashNow, dead bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.crashed {
		return 0, false, true
	}
	if g.arm == 0 {
		g.crashed = true
		return g.tear, true, false
	}
	if g.arm > 0 {
		g.arm--
	}
	return 0, false, false
}

func (g *crashGate) dead() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.crashed
}

// gatedDevice routes a device through a shared crashGate.
type gatedDevice struct {
	inner storage.Device
	g     *crashGate
}

func (d *gatedDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.g.dead() {
		return 0, storage.ErrInjectedCrash
	}
	return d.inner.ReadAt(p, off)
}

func (d *gatedDevice) WriteAt(p []byte, off int64) (int, error) {
	tear, crashNow, dead := d.g.allowWrite()
	if dead {
		return 0, storage.ErrInjectedCrash
	}
	if crashNow {
		if tear > 0 {
			if tear > len(p) {
				tear = len(p)
			}
			_, _ = d.inner.WriteAt(p[:tear], off)
		}
		return 0, storage.ErrInjectedCrash
	}
	return d.inner.WriteAt(p, off)
}

func (d *gatedDevice) Size() (int64, error) {
	if d.g.dead() {
		return 0, storage.ErrInjectedCrash
	}
	return d.inner.Size()
}

func (d *gatedDevice) Truncate(size int64) error {
	if d.g.dead() {
		return storage.ErrInjectedCrash
	}
	return d.inner.Truncate(size)
}

func (d *gatedDevice) Sync() error {
	if d.g.dead() {
		return storage.ErrInjectedCrash
	}
	return d.inner.Sync()
}

func (d *gatedDevice) Close() error { return nil }

// faultSegmentDir wraps a MemSegmentDir so that every segment and
// manifest device shares one crash gate: arming the gate kills the
// whole WAL mid-write — including mid-rollover, where the new segment's
// header write is the victim.
type faultSegmentDir struct {
	inner *wal.MemSegmentDir
	g     *crashGate
}

func (d *faultSegmentDir) OpenSegment(seq uint64) (storage.Device, error) {
	if d.g.dead() {
		return nil, storage.ErrInjectedCrash
	}
	dev, err := d.inner.OpenSegment(seq)
	if err != nil {
		return nil, err
	}
	return &gatedDevice{inner: dev, g: d.g}, nil
}

func (d *faultSegmentDir) RemoveSegment(seq uint64) error {
	if d.g.dead() {
		return storage.ErrInjectedCrash
	}
	return d.inner.RemoveSegment(seq)
}

func (d *faultSegmentDir) ListSegments() ([]uint64, error) { return d.inner.ListSegments() }

func (d *faultSegmentDir) OpenManifest() (storage.Device, error) {
	dev, err := d.inner.OpenManifest()
	if err != nil {
		return nil, err
	}
	return &gatedDevice{inner: dev, g: d.g}, nil
}

func (d *faultSegmentDir) Sync() error {
	if d.g.dead() {
		return storage.ErrInjectedCrash
	}
	return d.inner.Sync()
}

// --- helpers ------------------------------------------------------------

// openSegmentedCrashDB opens a DB over a segmented WAL with a tiny
// buffer pool and tiny segments, so write-back and segment rollover
// both happen constantly mid-workload.
func openSegmentedCrashDB(t *testing.T, dataDev storage.Device, logDir wal.SegmentDir) *DB {
	t.Helper()
	db, err := Open(Options{
		Device:          dataDev,
		LogDir:          logDir,
		Granularity:     Monolithic,
		BufferFrames:    8,
		WALSegmentBytes: 2 * storage.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// tornPageOnDevice scans the raw data device for a page that fails its
// checksum — evidence the crash really tore a page write.
func tornPageOnDevice(t *testing.T, dev storage.Device) bool {
	t.Helper()
	size, err := dev.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	for off := int64(storage.PageSize); off+storage.PageSize <= size; off += storage.PageSize {
		if _, err := dev.ReadAt(buf, off); err != nil {
			return true // short page at the tail: also torn
		}
		if !storage.WrapPage(storage.PageID(off/storage.PageSize), buf).VerifyChecksum() {
			return true
		}
	}
	return false
}

// --- scenarios ----------------------------------------------------------

// TestKVCrashRecoveryMidFuzzyCheckpoint kills the data device while a
// fuzzy checkpoint is flushing its dirty-page snapshot, at several
// crash points. The manifest is only advanced after the snapshot is
// durably flushed, so recovery falls back to the previous checkpoint
// and every committed operation survives.
func TestKVCrashRecoveryMidFuzzyCheckpoint(t *testing.T) {
	for _, crashAfter := range []int{0, 2, 5, 9} {
		for _, tear := range []int{0, storage.PageSize / 2} {
			t.Run(fmt.Sprintf("crashAfter=%d/tear=%d", crashAfter, tear), func(t *testing.T) {
				inner := storage.NewMemDevice()
				fault := storage.NewFaultDevice(inner)
				logDir := wal.NewMemSegmentDir()
				db := openSegmentedCrashDB(t, fault, logDir)

				// Phase 1: committed traffic plus a clean checkpoint, so
				// the crashing checkpoint has a predecessor to fall back
				// to and truncation is already in play.
				st := runKVCrashWorkload(db, 250, 80, int64(crashAfter)+7, nil)
				if _, err := db.CheckpointSync(); err != nil {
					t.Fatalf("baseline checkpoint: %v", err)
				}
				st2 := runKVCrashWorkload(db, 250, 80, int64(crashAfter)+13, nil)
				for k, v := range st2.live {
					st.live[k] = v
					delete(st.deleted, k)
				}
				for k := range st2.deleted {
					if _, ok := st2.live[k]; !ok {
						delete(st.live, k)
						st.deleted[k] = true
					}
				}

				// Phase 2: the data device dies during the checkpoint's
				// dirty-page flush.
				fault.CrashAfterWrites(crashAfter, tear)
				if _, err := db.CheckpointSync(); err == nil && fault.Crashed() {
					t.Fatal("checkpoint reported success on a dead device")
				}
				abandon(db)
				verifyRecovered(t, inner, logDir, st)
			})
		}
	}
}

// TestKVCrashRecoveryTornPageAfterTruncation is the acceptance
// scenario for full-page-writes: checkpoints truncate old WAL segments
// (provably — the oldest live segment advances and segment files are
// deleted), then a dirty page's in-flight write-back is torn by the
// crash. The page's original full image is gone with the truncated
// segments; recovery must rebuild it from the full page image logged on
// its first post-checkpoint mutation.
func TestKVCrashRecoveryTornPageAfterTruncation(t *testing.T) {
	dataDev := storage.NewMemDevice()
	logDir := wal.NewMemSegmentDir()
	db := openSegmentedCrashDB(t, dataDev, logDir)

	// Build history across several segments, checkpoint, and prove the
	// old segments (with the pages' original first-touch full images)
	// are gone.
	st := runKVCrashWorkload(db, 400, 100, 31, nil)
	if _, err := db.CheckpointSync(); err != nil {
		t.Fatal(err)
	}
	if db.Log().OldestSegment() == 1 {
		t.Fatalf("no truncation happened (oldest segment still 1 of %d)", db.Log().SegmentCount())
	}
	if logDir.Removed() == 0 {
		t.Fatal("no segment files were deleted")
	}

	// More committed traffic dirties pages again; each dirty page's
	// first post-checkpoint mutation logged a full image above the
	// fence.
	st2 := runKVCrashWorkload(db, 200, 100, 37, nil)
	for k, v := range st2.live {
		st.live[k] = v
		delete(st.deleted, k)
	}
	for k := range st2.deleted {
		if _, ok := st2.live[k]; !ok {
			delete(st.live, k)
			st.deleted[k] = true
		}
	}

	// Pick a page that is dirty with logged post-checkpoint records:
	// its write-back is "in flight" at the crash.
	dirty := db.Pool().DirtyPages()
	var victim storage.PageID
	for _, d := range dirty {
		if d.RecLSN > 0 {
			victim = d.ID
			break
		}
	}
	if victim == storage.InvalidPageID {
		t.Fatalf("no dirty logged page to tear (dirty table: %+v)", dirty)
	}
	abandon(db)

	// Tear the victim's on-disk image: the in-flight write applied only
	// garbage over its second half.
	junk := make([]byte, storage.PageSize/2)
	for i := range junk {
		junk[i] = 0xA5
	}
	if _, err := dataDev.WriteAt(junk, int64(victim)*storage.PageSize+storage.PageSize/2); err != nil {
		t.Fatal(err)
	}
	if !tornPageOnDevice(t, dataDev) {
		t.Fatal("victim page still verifies; the tear did nothing")
	}

	// Recovery must rebuild the torn page from the post-checkpoint full
	// image — the pre-checkpoint history it would otherwise need was
	// truncated away.
	verifyRecovered(t, dataDev, logDir, st)
}

// TestKVCrashRecoveryMidSegmentRollover kills the WAL itself at many
// write points while tiny segments force constant rollover: some crash
// points land exactly on a new segment's header write. Reopening over
// the surviving segment files must find the durable tail (dropping a
// header-less rollover victim) and recover every acknowledged
// operation.
func TestKVCrashRecoveryMidSegmentRollover(t *testing.T) {
	for _, crashAfter := range []int{3, 10, 22, 45, 80} {
		t.Run(fmt.Sprintf("crashAfter=%d", crashAfter), func(t *testing.T) {
			dataDev := storage.NewMemDevice()
			innerDir := wal.NewMemSegmentDir()
			gate := &crashGate{arm: -1}
			db := openSegmentedCrashDB(t, dataDev, &faultSegmentDir{inner: innerDir, g: gate})

			gate.mu.Lock()
			gate.arm = int64(crashAfter)
			gate.mu.Unlock()

			st := runKVCrashWorkload(db, 600, 100, int64(crashAfter)+53, gate.dead)
			abandon(db)
			verifyRecovered(t, dataDev, innerDir, st)
		})
	}
}

// TestFuzzyCheckpointUnderConcurrentTraffic races fuzzy checkpoints,
// log iteration (a shipper) and multi-goroutine KV traffic against
// each other — run under -race in the checkpoint-crash suite, it pins
// the pin-drain wait in FlushPages and the locked segment-end snapshot
// in Iterate.
func TestFuzzyCheckpointUnderConcurrentTraffic(t *testing.T) {
	dataDev := storage.NewMemDevice()
	logDir := wal.NewMemSegmentDir()
	db, err := Open(Options{
		Device:          dataDev,
		LogDir:          logDir,
		Granularity:     Monolithic,
		BufferFrames:    32,
		WALSegmentBytes: 4 * storage.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%d-key-%03d", w, i%50)
				if err := db.Put(ctx, k, []byte(fmt.Sprintf("v-%d", i))); err != nil {
					t.Errorf("put under checkpoints: %v", err)
					return
				}
			}
		}(w)
	}
	// A shipper iterating the live log while segments roll and truncate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			from := db.Log().OldestLSN()
			_ = db.Log().Iterate(from, func(r *wal.Record) error { return nil })
		}
	}()
	for i := 0; i < 10; i++ {
		if _, err := db.CheckpointSync(); err != nil {
			t.Errorf("checkpoint %d under traffic: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if db.Log().OldestSegment() == 1 {
		t.Fatal("checkpoints under traffic never truncated")
	}
	if err := db.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestKVWALBoundedBySegmentTruncation is the bounded-size acceptance
// test at the engine level: a long KV workload with periodic fuzzy
// checkpoints keeps the total WAL footprint bounded, provably deleting
// old segments while every committed operation stays recoverable.
func TestKVWALBoundedBySegmentTruncation(t *testing.T) {
	dataDev := storage.NewMemDevice()
	logDir := wal.NewMemSegmentDir()
	db, err := Open(Options{
		Device:          dataDev,
		LogDir:          logDir,
		Granularity:     Monolithic,
		BufferFrames:    32,
		WALSegmentBytes: 4 * storage.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := &crashState{live: map[string]string{}, deleted: map[string]bool{}}
	var maxSegments, maxSize uint64
	for round := 0; round < 30; round++ {
		part := runKVCrashWorkload(db, 120, 150, int64(round)+101, nil)
		for k, v := range part.live {
			st.live[k] = v
			delete(st.deleted, k)
		}
		for k := range part.deleted {
			if _, ok := part.live[k]; !ok {
				delete(st.live, k)
				st.deleted[k] = true
			}
		}
		if _, err := db.CheckpointSync(); err != nil {
			t.Fatalf("checkpoint round %d: %v", round, err)
		}
		if n := uint64(db.Log().SegmentCount()); n > maxSegments {
			maxSegments = n
		}
		if s := db.Log().Size(); s > maxSize {
			maxSize = s
		}
	}
	if logDir.Removed() == 0 {
		t.Fatal("long workload with checkpoints never deleted a segment")
	}
	if db.Log().OldestSegment() == 1 {
		t.Fatal("oldest segment never advanced")
	}
	// The live window must stay small: at most about two rounds of
	// history (pages dirtied early in a round hold the recovery-begin
	// LSN back until that round's checkpoint flushes them). Without
	// truncation, 30 rounds of full-page-write traffic would pile up
	// hundreds of segments.
	if created := db.Log().Rolls() + 1; created < 60 {
		t.Fatalf("only %d segments ever created; the workload is too small to prove bounding", created)
	}
	if maxSegments > 48 {
		t.Fatalf("live segments peaked at %d; truncation is not keeping up", maxSegments)
	}
	if limit := uint64(48 * 5 * storage.PageSize); maxSize > limit {
		t.Fatalf("WAL footprint peaked at %d bytes (limit %d)", maxSize, limit)
	}
	// And the bounded log still recovers the full committed state.
	abandon(db)
	verifyRecovered(t, dataDev, logDir, st)
}

// mergeCrashState folds a later workload's outcome into st.
func mergeCrashState(st, part *crashState) {
	for k, v := range part.live {
		st.live[k] = v
		delete(st.deleted, k)
	}
	for k := range part.deleted {
		if _, ok := part.live[k]; !ok {
			delete(st.live, k)
			st.deleted[k] = true
		}
	}
}

// TestKVCrashRecoveryEvictedPageBeforeCheckpoint crashes inside the
// window between checkpoints: the 8-frame pool writes dirty pages back
// on eviction, then the system dies BEFORE any checkpoint record covers
// them. Eviction goes through the write-ahead hook, so every persisted
// page's log records are durable first, and the dirty-page table
// forgets a page (clearing its recLSN) only after its bytes land — a
// checkpoint snapshotted after the write-back can therefore never
// advance recovery-begin past a mutation that exists only in the log.
// Here no such checkpoint ever runs: the manifest still names the
// baseline checkpoint, and recovery must replay the whole suffix across
// the written-back pages — including one whose in-flight write the
// crash tore in half.
func TestKVCrashRecoveryEvictedPageBeforeCheckpoint(t *testing.T) {
	dataDev := storage.NewMemDevice()
	logDir := wal.NewMemSegmentDir()
	db := openSegmentedCrashDB(t, dataDev, logDir)

	// History plus a clean baseline checkpoint, so recovery has a fence
	// to fall back to and truncation has already discarded old segments.
	st := runKVCrashWorkload(db, 300, 80, 61, nil)
	baseline, err := db.CheckpointSync()
	if err != nil {
		t.Fatalf("baseline checkpoint: %v", err)
	}
	st2 := runKVCrashWorkload(db, 200, 80, 67, nil)
	mergeCrashState(st, st2)
	abandon(db)

	// The victim is a page eviction wrote back after the baseline: its
	// on-device LSN is above the checkpoint, and no later checkpoint
	// covers it. Its write is "in flight" at the crash and gets torn.
	size, err := dataDev.Size()
	if err != nil {
		t.Fatal(err)
	}
	victim := storage.InvalidPageID
	buf := make([]byte, storage.PageSize)
	for off := int64(storage.PageSize); off+storage.PageSize <= size; off += storage.PageSize {
		if _, err := dataDev.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		id := storage.PageID(off / storage.PageSize)
		if storage.WrapPage(id, buf).LSN() > uint64(baseline) {
			victim = id
			break
		}
	}
	if victim == storage.InvalidPageID {
		t.Fatal("no page was evicted after the baseline checkpoint; the pool never wrote back")
	}
	junk := make([]byte, storage.PageSize/2)
	for i := range junk {
		junk[i] = 0x5A
	}
	if _, err := dataDev.WriteAt(junk, int64(victim)*storage.PageSize+storage.PageSize/2); err != nil {
		t.Fatal(err)
	}
	if !tornPageOnDevice(t, dataDev) {
		t.Fatal("victim page still verifies; the tear did nothing")
	}

	// Recovery replays from the baseline checkpoint's recovery-begin:
	// the suffix's full page images rebuild the torn victim, redo is
	// idempotent over the pages eviction already persisted, and nothing
	// committed is lost.
	verifyRecovered(t, dataDev, logDir, st)
}

// TestKVCrashRecoveryAsyncCheckpointWithoutCompletion covers the edge
// of the background flusher's window: an asynchronous checkpoint's
// record is durable in the log and the call has returned, but the
// device dies before the background flusher can flush the dirty-page
// snapshot. CompleteCheckpoint never runs, so the manifest must NOT
// advance past a snapshot that never became durable, truncation must
// not discard the history recovery still needs, and reopening falls
// back to the previous checkpoint.
func TestKVCrashRecoveryAsyncCheckpointWithoutCompletion(t *testing.T) {
	inner := storage.NewMemDevice()
	fault := storage.NewFaultDevice(inner)
	logDir := wal.NewMemSegmentDir()
	db := openSegmentedCrashDB(t, fault, logDir)

	st := runKVCrashWorkload(db, 250, 80, 71, nil)
	if _, err := db.CheckpointSync(); err != nil {
		t.Fatalf("baseline checkpoint: %v", err)
	}
	oldest := db.Log().OldestSegment()
	st2 := runKVCrashWorkload(db, 200, 80, 73, nil)
	mergeCrashState(st, st2)
	if len(db.Pool().DirtyPages()) == 0 {
		t.Fatal("workload left no dirty pages; the checkpoint has nothing to flush")
	}

	// The data device dies, then an async checkpoint is requested: its
	// records land in the (healthy) log and the call returns success,
	// but the background flush of the snapshot hits the dead device.
	fault.CrashAfterWrites(0, 0)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("async checkpoint enqueue: %v", err)
	}
	abandon(db) // drains the flusher; its completion fails on the dead device
	if got := db.Log().OldestSegment(); got != oldest {
		t.Fatalf("truncation advanced (%d -> %d) on a checkpoint whose snapshot never flushed", oldest, got)
	}
	verifyRecovered(t, inner, logDir, st)
}
