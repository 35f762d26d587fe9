package sql

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/catalog"
)

func TestViewOverView(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE VIEW adults AS SELECT id, name, age FROM users WHERE age >= 30")
	mustExec(t, e, "CREATE VIEW elders AS SELECT name FROM adults WHERE age >= 35")
	r := mustExec(t, e, "SELECT name FROM elders")
	if len(r.Rows) != 1 || r.Rows[0][0].Str != "cay" {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestViewWithAggregation(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE VIEW by_age AS SELECT age, COUNT(*) AS n FROM users WHERE age IS NOT NULL GROUP BY age")
	r := mustExec(t, e, "SELECT n FROM by_age WHERE age = 25")
	if len(r.Rows) != 1 || r.Rows[0][0].Int != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestNegativeNumbersAndExpressionsInInsert(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE m (a INT, b FLOAT)")
	mustExec(t, e, "INSERT INTO m VALUES (-5, -2.5), (2 + 3, 1.5 * 2)")
	r := mustExec(t, e, "SELECT a, b FROM m ORDER BY a")
	if r.Rows[0][0].Int != -5 || r.Rows[0][1].Float != -2.5 {
		t.Fatalf("row0 = %v", r.Rows[0])
	}
	if r.Rows[1][0].Int != 5 || r.Rows[1][1].Float != 3.0 {
		t.Fatalf("row1 = %v", r.Rows[1])
	}
}

func TestUnknownTableAndColumnErrors(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	ctx := context.Background()
	if _, err := e.Execute(ctx, "SELECT * FROM ghosts"); !errors.Is(err, catalog.ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Execute(ctx, "SELECT ghost_col FROM users"); err == nil {
		t.Fatal("unknown column must fail")
	}
	if _, err := e.Execute(ctx, "INSERT INTO users (ghost) VALUES (1)"); !errors.Is(err, catalog.ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Execute(ctx, "UPDATE users SET ghost = 1"); !errors.Is(err, catalog.ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Execute(ctx, "DELETE FROM ghosts"); !errors.Is(err, catalog.ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Execute(ctx, "CREATE INDEX i ON ghosts (x)"); !errors.Is(err, catalog.ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Execute(ctx, "DROP INDEX ghost_idx"); !errors.Is(err, catalog.ErrNoIndex) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Execute(ctx, "HAVING is not a statement"); !errors.Is(err, ErrSyntax) {
		t.Fatalf("err = %v", err)
	}
}

func TestHavingWithoutAggregationRejected(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	if _, err := e.Execute(context.Background(), "SELECT name FROM users HAVING age > 1"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupByExpression(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	// Group by a computed bucket.
	r := mustExec(t, e, `SELECT age / 10, COUNT(*) AS n FROM users
		WHERE age IS NOT NULL GROUP BY age / 10 ORDER BY n DESC`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][1].Int != 3 { // ages 25,25,30 fall in buckets 2 and 3
		// Bucket 2 holds 25,25; bucket 3 holds 30,35: counts 2 and 2.
		// Accept either shape as long as total is 4.
		total := r.Rows[0][1].Int + r.Rows[1][1].Int
		if total != 4 {
			t.Fatalf("total = %d", total)
		}
	}
}

func TestIndexRangeBoundsWithResidual(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE r (k INT, tag TEXT)")
	mustExec(t, e, "CREATE INDEX idx_k ON r (k)")
	for i := 0; i < 100; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO r VALUES (%d, 't%d')", i, i%2))
	}
	cases := []struct {
		q    string
		want int64
	}{
		{"SELECT COUNT(*) FROM r WHERE k < 10", 10},
		{"SELECT COUNT(*) FROM r WHERE k <= 10", 11},
		{"SELECT COUNT(*) FROM r WHERE k > 95", 4},
		{"SELECT COUNT(*) FROM r WHERE k >= 95", 5},
		{"SELECT COUNT(*) FROM r WHERE 50 = k", 1},                // reversed operands
		{"SELECT COUNT(*) FROM r WHERE k < 10 AND tag = 't1'", 5}, // residual filter
	}
	for _, c := range cases {
		r := mustExec(t, e, c.q)
		if r.Rows[0][0].Int != c.want {
			t.Errorf("%s = %d, want %d", c.q, r.Rows[0][0].Int, c.want)
		}
	}
}

func TestMultiRowInsertAffected(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (a INT)")
	r := mustExec(t, e, "INSERT INTO t VALUES (1), (2), (3)")
	if r.Affected != 3 {
		t.Fatalf("affected = %d", r.Affected)
	}
	r = mustExec(t, e, "UPDATE t SET a = 0")
	if r.Affected != 3 {
		t.Fatalf("update affected = %d", r.Affected)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := newEngine(t)
	r := mustExec(t, e, "SELECT 6 * 7 AS answer")
	if len(r.Rows) != 1 || r.Rows[0][0].Int != 42 || r.Cols[0] != "answer" {
		t.Fatalf("rows = %v cols = %v", r.Rows, r.Cols)
	}
}

func TestDistinctWithOrderAndLimit(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	r := mustExec(t, e, "SELECT DISTINCT age FROM users WHERE age IS NOT NULL ORDER BY age DESC LIMIT 2")
	if len(r.Rows) != 2 || r.Rows[0][0].Int != 35 || r.Rows[1][0].Int != 30 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestRollbackRestoresIndexes(t *testing.T) {
	e := newEngine(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE INDEX idx_age ON users (age)")
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "UPDATE users SET age = 99 WHERE id = 1")
	mustExec(t, e, "ROLLBACK")
	// Both the heap (WAL before-images) and the index (abort
	// compensation callbacks) must roll back, so the indexed lookup
	// sees the original row.
	r := mustExec(t, e, "SELECT COUNT(*) FROM users WHERE age = 30")
	if r.Rows[0][0].Int != 1 {
		t.Fatalf("age=30 count = %d", r.Rows[0][0].Int)
	}
}
