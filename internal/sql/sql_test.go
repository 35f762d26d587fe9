package sql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/undo"
	"repro/internal/wal"
)

// newEngine builds a full engine over an in-memory disk with WAL and
// transactions.
func newEngine(t testing.TB) *Engine {
	t.Helper()
	e, _ := newEngineAndLog(t)
	return e
}

func newEngineAndLog(t testing.TB) (*Engine, *wal.Log) {
	t.Helper()
	return newEngineFrames(t, 128)
}

// newEngineFrames is newEngineAndLog over a buffer pool of frames pages.
func newEngineFrames(t testing.TB, frames int) (*Engine, *wal.Log) {
	t.Helper()
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(d, frames, buffer.NewLRU())
	fm, err := storage.OpenFileManager(pool)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenDir(wal.NewMemSegmentDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(fm, pool, l)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetBeforeEvict(l.BeforeEvict())
	mgr := txn.NewManager(l, pool)
	e := NewEngine(fm, pool, cat, mgr, l)
	wireUndo(e, pool, l, mgr)
	return e, l
}

// wireUndo installs the logical-undo executor, as sbdms.Open does.
func wireUndo(e *Engine, pool *buffer.Manager, l *wal.Log, mgr *txn.Manager) {
	ex := undo.NewExecutor(pool, l)
	ex.SetSystemTxns(mgr.SystemHooksHeldLatches())
	mgr.SetUndoHandler(ex)
	e.SetUndo(ex)
}

func seedUsers(t *testing.T, e *Engine) {
	t.Helper()
	ctx := context.Background()
	mustExec(t, e, "CREATE TABLE users (id INT NOT NULL, name TEXT, age INT)")
	_, err := e.Execute(ctx, `INSERT INTO users (id, name, age) VALUES
		(1, 'ann', 30), (2, 'bob', 25), (3, 'cay', 35), (4, 'dan', 25), (5, 'eve', NULL)`)
	if err != nil {
		t.Fatal(err)
	}
}

func mustExec(t testing.TB, e *Engine, q string) *Result {
	t.Helper()
	r, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return r
}

func queryInts(t *testing.T, e *Engine, q string) []int64 {
	t.Helper()
	r := mustExec(t, e, q)
	out := make([]int64, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, row[0].Int)
	}
	return out
}

func TestCreateInsertSelect(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	r := mustExec(t, e, "SELECT * FROM users")
	if len(r.Rows) != 5 || len(r.Cols) != 3 {
		t.Fatalf("rows=%d cols=%v", len(r.Rows), r.Cols)
	}
	if r.Cols[0] != "id" || r.Cols[1] != "name" {
		t.Fatalf("cols = %v", r.Cols)
	}
}

func TestWhereAndProjection(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	r := mustExec(t, e, "SELECT name, age * 2 AS dbl FROM users WHERE age >= 30 ORDER BY name")
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][0].Str != "ann" || r.Rows[0][1].Int != 60 {
		t.Fatalf("row = %v", r.Rows[0])
	}
	if r.Cols[1] != "dbl" {
		t.Fatalf("cols = %v", r.Cols)
	}
	// NULL age excluded by comparison semantics.
	r = mustExec(t, e, "SELECT name FROM users WHERE age < 100")
	if len(r.Rows) != 4 {
		t.Fatalf("null row must not match: %v", r.Rows)
	}
	r = mustExec(t, e, "SELECT name FROM users WHERE age IS NULL")
	if len(r.Rows) != 1 || r.Rows[0][0].Str != "eve" {
		t.Fatalf("IS NULL = %v", r.Rows)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	got := queryInts(t, e, "SELECT id FROM users ORDER BY id DESC LIMIT 2 OFFSET 1")
	if fmt.Sprint(got) != "[4 3]" {
		t.Fatalf("got %v", got)
	}
	// ORDER BY column that is projected away (pre-projection sort).
	r := mustExec(t, e, "SELECT name FROM users WHERE age IS NOT NULL ORDER BY age, name")
	want := []string{"bob", "dan", "ann", "cay"}
	for i, w := range want {
		if r.Rows[i][0].Str != w {
			t.Fatalf("order = %v", r.Rows)
		}
	}
	// ORDER BY output alias (post-projection sort).
	r = mustExec(t, e, "SELECT age * 2 AS dbl FROM users WHERE age IS NOT NULL ORDER BY dbl DESC LIMIT 1")
	if r.Rows[0][0].Int != 70 {
		t.Fatalf("alias order = %v", r.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	r := mustExec(t, e, "UPDATE users SET age = age + 1 WHERE age = 25")
	if r.Affected != 2 {
		t.Fatalf("affected = %d", r.Affected)
	}
	got := queryInts(t, e, "SELECT COUNT(*) FROM users WHERE age = 26")
	if got[0] != 2 {
		t.Fatalf("updated rows = %d", got[0])
	}
	r = mustExec(t, e, "DELETE FROM users WHERE age = 26")
	if r.Affected != 2 {
		t.Fatalf("deleted = %d", r.Affected)
	}
	if got := queryInts(t, e, "SELECT COUNT(*) FROM users"); got[0] != 3 {
		t.Fatalf("remaining = %d", got[0])
	}
	// DELETE without WHERE clears the table.
	mustExec(t, e, "DELETE FROM users")
	if got := queryInts(t, e, "SELECT COUNT(*) FROM users"); got[0] != 0 {
		t.Fatalf("count = %d", got[0])
	}
}

func TestAggregates(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	r := mustExec(t, e, "SELECT COUNT(*), COUNT(age), SUM(age), AVG(age), MIN(age), MAX(age) FROM users")
	row := r.Rows[0]
	if row[0].Int != 5 || row[1].Int != 4 || row[2].Int != 115 || row[3].Float != 28.75 ||
		row[4].Int != 25 || row[5].Int != 35 {
		t.Fatalf("aggs = %v", row)
	}
	// GROUP BY + HAVING + ORDER BY.
	r = mustExec(t, e, `SELECT age, COUNT(*) AS n FROM users
		WHERE age IS NOT NULL GROUP BY age HAVING COUNT(*) > 1 ORDER BY age`)
	if len(r.Rows) != 1 || r.Rows[0][0].Int != 25 || r.Rows[0][1].Int != 2 {
		t.Fatalf("group = %v", r.Rows)
	}
}

func TestJoins(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE orders (oid INT, user_id INT, total FLOAT)")
	mustExec(t, e, `INSERT INTO orders VALUES (100, 1, 9.5), (101, 2, 15.0), (102, 1, 3.25), (103, 9, 1.0)`)
	r := mustExec(t, e, `SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id ORDER BY o.total`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][0].Str != "ann" || r.Rows[0][1].Float != 3.25 {
		t.Fatalf("first = %v", r.Rows[0])
	}
	// Aggregation over a join.
	r = mustExec(t, e, `SELECT u.name, SUM(o.total) AS spent FROM users u
		JOIN orders o ON u.id = o.user_id GROUP BY u.name ORDER BY spent DESC`)
	if len(r.Rows) != 2 || r.Rows[0][0].Str != "bob" || r.Rows[1][1].Float != 12.75 {
		t.Fatalf("joined agg = %v", r.Rows)
	}
	// Cross join via comma.
	r = mustExec(t, e, "SELECT COUNT(*) FROM users, orders")
	if r.Rows[0][0].Int != 20 {
		t.Fatalf("cross = %v", r.Rows)
	}
	// Non-equi join falls back to nested loops.
	r = mustExec(t, e, "SELECT COUNT(*) FROM users u JOIN orders o ON u.id < o.user_id")
	if r.Rows[0][0].Int == 0 {
		t.Fatalf("non-equi join empty")
	}
}

func TestIndexUsageAndMaintenance(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE INDEX idx_age ON users (age)")
	// Equality probe via the index.
	got := queryInts(t, e, "SELECT id FROM users WHERE age = 25 ORDER BY id")
	if fmt.Sprint(got) != "[2 4]" {
		t.Fatalf("got %v", got)
	}
	// Range via the index + residual filter.
	got = queryInts(t, e, "SELECT id FROM users WHERE age >= 30 AND name != 'cay'")
	if fmt.Sprint(got) != "[1]" {
		t.Fatalf("got %v", got)
	}
	// Index maintained across UPDATE/DELETE/INSERT.
	mustExec(t, e, "UPDATE users SET age = 99 WHERE id = 2")
	got = queryInts(t, e, "SELECT id FROM users WHERE age = 99")
	if fmt.Sprint(got) != "[2]" {
		t.Fatalf("after update: %v", got)
	}
	if got = queryInts(t, e, "SELECT id FROM users WHERE age = 25"); fmt.Sprint(got) != "[4]" {
		t.Fatalf("stale index entry: %v", got)
	}
	mustExec(t, e, "DELETE FROM users WHERE id = 4")
	if got = queryInts(t, e, "SELECT id FROM users WHERE age = 25"); len(got) != 0 {
		t.Fatalf("after delete: %v", got)
	}
	mustExec(t, e, "INSERT INTO users VALUES (6, 'fay', 25)")
	if got = queryInts(t, e, "SELECT id FROM users WHERE age = 25"); fmt.Sprint(got) != "[6]" {
		t.Fatalf("after insert: %v", got)
	}
	mustExec(t, e, "DROP INDEX idx_age")
	// Queries still work via seq scan.
	if got = queryInts(t, e, "SELECT id FROM users WHERE age = 25"); fmt.Sprint(got) != "[6]" {
		t.Fatalf("after drop index: %v", got)
	}
}

func TestUniqueIndexConstraint(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE UNIQUE INDEX idx_id ON users (id)")
	_, err := e.Execute(context.Background(), "INSERT INTO users VALUES (1, 'dup', 1)")
	if err == nil {
		t.Fatal("duplicate id must fail")
	}
	// The failed insert left no trace.
	if got := queryInts(t, e, "SELECT COUNT(*) FROM users"); got[0] != 5 {
		t.Fatalf("count = %d", got[0])
	}
	if got := queryInts(t, e, "SELECT COUNT(*) FROM users WHERE id = 1"); got[0] != 1 {
		t.Fatalf("id=1 rows = %d", got[0])
	}
}

func TestNotNullAndArity(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	ctx := context.Background()
	if _, err := e.Execute(ctx, "INSERT INTO users (name) VALUES ('ghost')"); !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Execute(ctx, "INSERT INTO users (id, name) VALUES (9)"); !errors.Is(err, ErrArity) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Execute(ctx, "UPDATE users SET id = NULL WHERE id = 1"); !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v", err)
	}
	// Type coercion int->float and rejection of mismatches.
	mustExec(t, e, "CREATE TABLE m (f FLOAT)")
	mustExec(t, e, "INSERT INTO m VALUES (3)")
	r := mustExec(t, e, "SELECT f FROM m")
	if r.Rows[0][0].Type != access.TypeFloat || r.Rows[0][0].Float != 3 {
		t.Fatalf("coerced = %v", r.Rows[0][0])
	}
	if _, err := e.Execute(ctx, "INSERT INTO m VALUES ('nope')"); err == nil {
		t.Fatal("type mismatch must fail")
	}
}

func TestViews(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE VIEW adults AS SELECT id, name FROM users WHERE age >= 30")
	r := mustExec(t, e, "SELECT name FROM adults ORDER BY name")
	if len(r.Rows) != 2 || r.Rows[0][0].Str != "ann" {
		t.Fatalf("view rows = %v", r.Rows)
	}
	// Join a view with a table.
	mustExec(t, e, "CREATE TABLE tags (user_id INT, tag TEXT)")
	mustExec(t, e, "INSERT INTO tags VALUES (1, 'vip'), (3, 'vip'), (2, 'basic')")
	r = mustExec(t, e, `SELECT a.name, t.tag FROM adults a JOIN tags t ON a.id = t.user_id ORDER BY a.name`)
	if len(r.Rows) != 2 || r.Rows[0][1].Str != "vip" {
		t.Fatalf("view join = %v", r.Rows)
	}
	mustExec(t, e, "DROP VIEW adults")
	if _, err := e.Execute(context.Background(), "SELECT * FROM adults"); err == nil {
		t.Fatal("dropped view must not resolve")
	}
}

func TestTransactionsCommitRollback(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	ctx := context.Background()
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO users VALUES (10, 'tmp', 1)")
	if got := queryInts(t, e, "SELECT COUNT(*) FROM users"); got[0] != 6 {
		t.Fatalf("in-txn count = %d", got[0])
	}
	mustExec(t, e, "ROLLBACK")
	if got := queryInts(t, e, "SELECT COUNT(*) FROM users"); got[0] != 5 {
		t.Fatalf("after rollback = %d", got[0])
	}
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "UPDATE users SET age = 40 WHERE id = 1")
	mustExec(t, e, "COMMIT")
	if got := queryInts(t, e, "SELECT age FROM users WHERE id = 1"); got[0] != 40 {
		t.Fatalf("after commit = %d", got[0])
	}
	if _, err := e.Execute(ctx, "COMMIT"); !errors.Is(err, ErrNoActiveTxn) {
		t.Fatalf("err = %v", err)
	}
	mustExec(t, e, "BEGIN")
	if _, err := e.Execute(ctx, "BEGIN"); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("err = %v", err)
	}
	mustExec(t, e, "ROLLBACK")
}

func TestDistinct(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	got := queryInts(t, e, "SELECT DISTINCT age FROM users WHERE age IS NOT NULL ORDER BY age")
	if fmt.Sprint(got) != "[25 30 35]" {
		t.Fatalf("got %v", got)
	}
}

func TestDropTable(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE INDEX idx_age ON users (age)")
	mustExec(t, e, "DROP TABLE users")
	if _, err := e.Execute(context.Background(), "SELECT * FROM users"); err == nil {
		t.Fatal("dropped table must not resolve")
	}
	// Name reusable.
	mustExec(t, e, "CREATE TABLE users (id INT)")
	mustExec(t, e, "INSERT INTO users VALUES (1)")
	if got := queryInts(t, e, "SELECT COUNT(*) FROM users"); got[0] != 1 {
		t.Fatalf("recreated count = %d", got[0])
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"",
		"FLY ME TO THE MOON",
		"SELECT",
		"SELECT FROM users",
		"CREATE TABLE t",
		"CREATE TABLE t ()",
		"INSERT users VALUES (1)",
		"SELECT * FROM users WHERE",
		"SELECT * FROM users LIMIT 'x'",
		"SELECT SUM(*) FROM users",
		"SELECT * FROM users ORDER",
		"INSERT INTO t VALUES (1",
		"SELECT 'unterminated FROM t",
		"CREATE UNIQUE TABLE t (a INT)",
		"SELECT * FROM users; SELECT 1",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParserFeatures(t *testing.T) {
	// Escaped quotes, comments, expressions without FROM.
	e := newEngine(t)
	r := mustExec(t, e, "SELECT 1 + 2 * 3 AS x, 'it''s' AS s -- trailing comment")
	if r.Rows[0][0].Int != 7 || r.Rows[0][1].Str != "it's" {
		t.Fatalf("row = %v", r.Rows[0])
	}
	// Unary minus and parens.
	r = mustExec(t, e, "SELECT -(2 + 3) * 2")
	if r.Rows[0][0].Int != -10 {
		t.Fatalf("row = %v", r.Rows[0])
	}
	// Boolean literals and <> operator.
	r = mustExec(t, e, "SELECT TRUE, FALSE, 1 <> 2")
	if !r.Rows[0][0].Bool || r.Rows[0][1].Bool || !r.Rows[0][2].Bool {
		t.Fatalf("row = %v", r.Rows[0])
	}
}

func TestEnginePersistenceAcrossReopen(t *testing.T) {
	dev := storage.NewMemDevice()
	logDir := wal.NewMemSegmentDir()
	open := func() *Engine {
		d, err := storage.OpenDisk(dev)
		if err != nil {
			t.Fatal(err)
		}
		l, err := wal.OpenDir(logDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wal.Recover(l, d); err != nil {
			t.Fatal(err)
		}
		pool := buffer.New(d, 128, buffer.NewLRU())
		pool.SetBeforeEvict(l.BeforeEvict())
		fm, err := storage.OpenFileManager(pool)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := catalog.Open(fm, pool, l)
		if err != nil {
			t.Fatal(err)
		}
		mgr := txn.NewManager(l, pool)
		e := NewEngine(fm, pool, cat, mgr, l)
		wireUndo(e, pool, l, mgr)
		return e
	}
	e := open()
	mustExec(t, e, "CREATE TABLE kv (k TEXT NOT NULL, v INT)")
	mustExec(t, e, "CREATE INDEX idx_k ON kv (k)")
	mustExec(t, e, "INSERT INTO kv VALUES ('a', 1), ('b', 2)")
	// Simulate clean-ish shutdown of data pages for the committed work.
	if err := e.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}

	e2 := open()
	r := mustExec(t, e2, "SELECT v FROM kv WHERE k = 'b'")
	if len(r.Rows) != 1 || r.Rows[0][0].Int != 2 {
		t.Fatalf("reopened rows = %v", r.Rows)
	}
	tbl, err := e2.Catalog().GetTable("kv")
	if err != nil || len(tbl.Indexes) != 1 {
		t.Fatalf("catalog lost index: %v, %v", tbl, err)
	}
}

func TestEngineCrashRecovery(t *testing.T) {
	dev := storage.NewMemDevice()
	logDir := wal.NewMemSegmentDir()
	d, _ := storage.OpenDisk(dev)
	l, _ := wal.OpenDir(logDir, 0)
	pool := buffer.New(d, 128, buffer.NewLRU())
	pool.SetBeforeEvict(l.BeforeEvict())
	fm, _ := storage.OpenFileManager(pool)
	mgr := txn.NewManager(l, pool)
	// Log directory updates under system transactions, as sbdms.Open
	// wires it, so recovery can reach the table's pages.
	fm.SetLogger(mgr.PageLogger())
	cat, _ := catalog.Open(fm, pool, l)
	e := NewEngine(fm, pool, cat, mgr, l)
	wireUndo(e, pool, l, mgr)
	mustExec(t, e, "CREATE TABLE kv (k TEXT, v INT)")
	mustExec(t, e, "INSERT INTO kv VALUES ('committed', 1)")
	// Crash: no FlushAll. Committed work lives only in WAL + whatever
	// the pool happened to write.

	d2, err := storage.OpenDisk(dev)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := wal.OpenDir(logDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Recover(l2, d2); err != nil {
		t.Fatal(err)
	}
	pool2 := buffer.New(d2, 128, buffer.NewLRU())
	pool2.SetBeforeEvict(l2.BeforeEvict())
	fm2, err := storage.OpenFileManager(pool2)
	if err != nil {
		t.Fatal(err)
	}
	cat2, err := catalog.Open(fm2, pool2, l2)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(fm2, pool2, cat2, txn.NewManager(l2, pool2), l2)
	r := mustExec(t, e2, "SELECT k FROM kv")
	if len(r.Rows) != 1 || r.Rows[0][0].Str != "committed" {
		t.Fatalf("recovered rows = %v", r.Rows)
	}
}

func TestLockingBetweenSessions(t *testing.T) {
	// Two engines over the same storage share a txn manager: writer
	// blocks writer.
	d, _ := storage.OpenDisk(storage.NewMemDevice())
	l, _ := wal.OpenDir(wal.NewMemSegmentDir(), 0)
	pool := buffer.New(d, 128, buffer.NewLRU())
	pool.SetBeforeEvict(l.BeforeEvict())
	fm, _ := storage.OpenFileManager(pool)
	cat, _ := catalog.Open(fm, pool, l)
	mgr := txn.NewManager(l, pool)
	e1 := NewEngine(fm, pool, cat, mgr, l)
	e2 := NewEngine(fm, pool, cat, mgr, l)
	mustExec(t, e1, "CREATE TABLE t (a INT)")
	mustExec(t, e1, "BEGIN")
	mustExec(t, e1, "INSERT INTO t VALUES (1)")

	done := make(chan error, 1)
	go func() {
		_, err := e2.Execute(context.Background(), "INSERT INTO t VALUES (2)")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("second writer should block, got %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	mustExec(t, e1, "COMMIT")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r := mustExec(t, e1, "SELECT COUNT(*) FROM t")
	if r.Rows[0][0].Int != 2 {
		t.Fatalf("count = %v", r.Rows)
	}
}

func TestSelectStarExpansionWithJoin(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE pets (owner_id INT, pet TEXT)")
	mustExec(t, e, "INSERT INTO pets VALUES (1, 'cat')")
	r := mustExec(t, e, "SELECT * FROM users u JOIN pets p ON u.id = p.owner_id")
	if len(r.Cols) != 5 || len(r.Rows) != 1 {
		t.Fatalf("cols = %v rows = %v", r.Cols, r.Rows)
	}
	if r.Cols[3] != "owner_id" || r.Rows[0][4].Str != "cat" {
		t.Fatalf("star expansion = %v / %v", r.Cols, r.Rows[0])
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE others (id INT)")
	mustExec(t, e, "INSERT INTO others VALUES (1)")
	_, err := e.Execute(context.Background(), "SELECT id FROM users u JOIN others o ON u.id = o.id")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
}

func TestAggCallOutsideGroupErrors(t *testing.T) {
	var a AggCall = AggCall{Func: exec.AggCount}
	if _, err := a.Eval(nil, nil); err == nil {
		t.Fatal("bare aggregate eval must fail")
	}
	if a.String() != "COUNT(*)" {
		t.Fatalf("String = %s", a.String())
	}
}
