package sbdms

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/wal"
)

// DDL runs under the statement's transaction like DML: its catalog rows
// and index pages are logged, it commits with one commit record and it
// rolls back with the transaction. These tests hold that against a
// crash at every device write of a CREATE INDEX and against ROLLBACK.

const ddlRows = 2000

// cloneDevice copies a memory device's bytes into a fresh one.
func cloneDevice(t *testing.T, src storage.Device) *storage.MemDevice {
	t.Helper()
	size, err := src.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := src.ReadAt(buf, 0); err != nil && size > 0 {
		t.Fatal(err)
	}
	dst := storage.NewMemDevice()
	if _, err := dst.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return dst
}

// cloneLogDir copies every segment and the manifest of a log directory.
func cloneLogDir(t *testing.T, src *wal.MemSegmentDir) *wal.MemSegmentDir {
	t.Helper()
	dst := wal.NewMemSegmentDir()
	seqs, err := src.ListSegments()
	if err != nil {
		t.Fatal(err)
	}
	copyInto := func(from, to storage.Device) {
		c := cloneDevice(t, from)
		size, _ := c.Size()
		buf := make([]byte, size)
		if _, err := c.ReadAt(buf, 0); err != nil && size > 0 {
			t.Fatal(err)
		}
		if _, err := to.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, seq := range seqs {
		from, err := src.OpenSegment(seq)
		if err != nil {
			t.Fatal(err)
		}
		to, err := dst.OpenSegment(seq)
		if err != nil {
			t.Fatal(err)
		}
		copyInto(from, to)
	}
	from, err := src.OpenManifest()
	if err != nil {
		t.Fatal(err)
	}
	to, err := dst.OpenManifest()
	if err != nil {
		t.Fatal(err)
	}
	copyInto(from, to)
	return dst
}

// openDDLDB opens a store whose 16-frame pool is far smaller than a
// 2,000-row table and its index, so a backfill evicts pages.
func openDDLDB(t *testing.T, dev storage.Device, logDir wal.SegmentDir) (*DB, error) {
	t.Helper()
	return Open(Options{Device: dev, LogDir: logDir, Granularity: Monolithic, BufferFrames: 16})
}

// execAll runs statements in order, failing the test on the first error.
func execAll(t *testing.T, db *DB, stmts ...string) {
	t.Helper()
	for _, q := range stmts {
		if _, err := db.Exec(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// seedDDLStore fills kv with ddlRows rows (k = 0..ddlRows-1) and other
// with three, checkpoints, and leaves the store as a kill -9 would.
func seedDDLStore(t *testing.T) (storage.Device, *wal.MemSegmentDir) {
	t.Helper()
	dev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db, err := openDDLDB(t, dev, logDir)
	if err != nil {
		t.Fatal(err)
	}
	execAll(t, db, "CREATE TABLE kv (k INT NOT NULL, v TEXT)", "CREATE TABLE other (a INT)",
		"INSERT INTO other VALUES (1), (2), (3)")
	for lo := 0; lo < ddlRows; lo += 200 {
		var vals []string
		for k := lo; k < lo+200; k++ {
			vals = append(vals, fmt.Sprintf("(%d, 'v%d')", k, k))
		}
		execAll(t, db, "INSERT INTO kv VALUES "+strings.Join(vals, ", "))
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	abandon(db)
	return dev, logDir
}

// selectInts runs q and returns its single INT column.
func selectInts(db *DB, q string) ([]int64, error) {
	res, err := db.Exec(ctx, q)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].Int
	}
	return out, nil
}

// checkDDLStore checks that both seeded tables hold every row and that
// the index on kv.k, if the catalog has one, returns the heap's rows
// for =, < and >= predicates.
func checkDDLStore(t *testing.T, db *DB) {
	t.Helper()
	if got, err := selectInts(db, "SELECT a FROM other"); err != nil || len(got) != 3 {
		t.Fatalf("table other after recovery: %v, %v", got, err)
	}
	if got, err := selectInts(db, "SELECT COUNT(*) FROM kv"); err != nil || got[0] != ddlRows {
		t.Fatalf("table kv after recovery: %v, %v", got, err)
	}
	tbl, err := db.Engine().Catalog().GetTable("kv")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Index("k"); !ok {
		return // the index is absent: CREATE INDEX did not commit
	}
	for _, c := range []struct {
		where  string
		lo, hi int64 // expected k range [lo, hi)
	}{
		{"k = 777", 777, 778},
		{"k < 500", 0, 500},
		{"k >= 1500", 1500, ddlRows},
	} {
		got, err := selectInts(db, "SELECT k FROM kv WHERE "+c.where)
		if err != nil {
			t.Fatalf("WHERE %s through the index: %v", c.where, err)
		}
		seen := make(map[int64]bool, len(got))
		for _, k := range got {
			if k < c.lo || k >= c.hi || seen[k] {
				t.Fatalf("WHERE %s returned stray or repeated k=%d", c.where, k)
			}
			seen[k] = true
		}
		if int64(len(seen)) != c.hi-c.lo {
			t.Fatalf("WHERE %s returned %d rows, the heap holds %d", c.where, len(seen), c.hi-c.lo)
		}
	}
}

// TestEngineCrashRecoveryCreateIndex crashes the data device at every
// write a CREATE INDEX and the checkpoint after it make, with the
// crashing write dropped or torn after 100 or 2,000 bytes. After
// recovery every earlier table and row is there, and the index is
// either absent or agrees with the heap.
func TestEngineCrashRecoveryCreateIndex(t *testing.T) {
	baseDev, baseLog := seedDDLStore(t)
	run := func(arm func(*storage.FaultDevice)) (inner *storage.MemDevice, logDir *wal.MemSegmentDir, writes uint64) {
		inner, logDir = cloneDevice(t, baseDev), cloneLogDir(t, baseLog)
		fault := storage.NewFaultDevice(inner)
		db, err := openDDLDB(t, fault, logDir)
		if err != nil {
			t.Fatal(err)
		}
		before := fault.Writes()
		arm(fault)
		// Errors are expected once the device has crashed.
		if _, err := db.Exec(ctx, "CREATE INDEX kv_k ON kv (k)"); err == nil {
			_, _ = db.Checkpoint()
		}
		writes = fault.Writes() - before
		abandon(db)
		return inner, logDir, writes
	}
	_, _, total := run(func(*storage.FaultDevice) {})
	if total == 0 {
		t.Fatal("CREATE INDEX and Checkpoint made no device write")
	}
	for n := 0; n <= int(total); n++ {
		for _, tear := range []int{0, 100, 2000} {
			inner, logDir, _ := run(func(f *storage.FaultDevice) { f.CrashAfterWrites(n, tear) })
			db, err := openDDLDB(t, inner, logDir)
			if err != nil {
				t.Fatalf("crash after %d of %d writes, tear %d: reopen: %v", n, total, tear, err)
			}
			t.Run(fmt.Sprintf("n=%d/tear=%d", n, tear), func(t *testing.T) {
				checkDDLStore(t, db)
				tbl, err := db.Engine().Catalog().GetTable("kv")
				if _, ok := tbl.Index("k"); err == nil && !ok && n == int(total) {
					t.Fatal("the index is missing after a run with no crash")
				}
			})
			abandon(db)
		}
	}
}

// TestDDLRollback rolls back a CREATE TABLE and a DROP TABLE inside
// session transactions: the created table is gone and the dropped one
// is back with its rows, both before and after a reopen.
func TestDDLRollback(t *testing.T) {
	dev, logDir := storage.NewMemDevice(), wal.NewMemSegmentDir()
	db, err := openDDLDB(t, dev, logDir)
	if err != nil {
		t.Fatal(err)
	}
	execAll(t, db, "CREATE TABLE u (a INT)", "CREATE INDEX u_a ON u (a)", "INSERT INTO u VALUES (1), (2), (3)",
		"BEGIN", "CREATE TABLE t (a INT)", "INSERT INTO t VALUES (9)", "ROLLBACK",
		"BEGIN", "DROP TABLE u", "ROLLBACK")
	check := func(when string) {
		if _, err := db.Exec(ctx, "SELECT a FROM t"); !errors.Is(err, catalog.ErrNoTable) {
			t.Fatalf("%s: table t after its CREATE rolled back: %v", when, err)
		}
		got, err := selectInts(db, "SELECT a FROM u WHERE a >= 2")
		if err != nil || len(got) != 2 {
			t.Fatalf("%s: table u after its DROP rolled back: %v, %v", when, got, err)
		}
	}
	check("before reopen")
	abandon(db)
	if db, err = openDDLDB(t, dev, logDir); err != nil {
		t.Fatal(err)
	}
	defer abandon(db)
	check("after reopen")
	// The rolled-back statements left nothing behind that blocks them.
	execAll(t, db, "CREATE TABLE t (a INT)", "DROP TABLE u", "CREATE TABLE u (b INT)")
}
