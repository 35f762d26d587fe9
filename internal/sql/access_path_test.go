package sql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
)

// TestIndexedWhereMatchesHeapScan runs every statement on two tables
// holding the same rows, ix with indexes on id (INT) and f (FLOAT) and
// hp with none, and requires the same rows, affected counts and errors
// from both: an index range may only narrow the rows a predicate is
// evaluated on, never change its result.
func TestIndexedWhereMatchesHeapScan(t *testing.T) {
	ctx := context.Background()
	e := newEngine(t)
	var vals []string
	for i := 0; i < 40; i++ {
		// f is i/2: 0.0, 0.5, 1.0, ..., 19.5.
		vals = append(vals, fmt.Sprintf("(%d, %d.%d, 't%d')", i, i/2, 5*(i%2), i%3))
	}
	vals = append(vals, "(NULL, NULL, 'null')")
	for _, tbl := range []string{"ix", "hp"} {
		mustExec(t, e, "CREATE TABLE "+tbl+" (id INT, f FLOAT, tag TEXT)")
		mustExec(t, e, "INSERT INTO "+tbl+" VALUES "+strings.Join(vals, ", "))
	}
	mustExec(t, e, "CREATE INDEX ix_id ON ix (id)")
	mustExec(t, e, "CREATE INDEX ix_f ON ix (f)")

	// same runs tmpl (one %s for the table) on both tables and returns
	// hp's result, or nil when both failed.
	same := func(tmpl string) *Result {
		t.Helper()
		a, aerr := e.Execute(ctx, fmt.Sprintf(tmpl, "ix"))
		b, berr := e.Execute(ctx, fmt.Sprintf(tmpl, "hp"))
		if (aerr == nil) != (berr == nil) {
			t.Errorf("%s: indexed err %v, heap err %v", tmpl, aerr, berr)
			return nil
		}
		if aerr != nil {
			return nil
		}
		if got, want := resultString(a), resultString(b); got != want {
			t.Errorf("%s:\n indexed %s\n heap    %s", tmpl, got, want)
		}
		return b
	}

	tbl, err := e.cat.GetTable("ix")
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.heap(tbl)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		where string
		probe bool // ix reaches its rows through an index range
		rows  int  // matching rows; -1 = the predicate fails
	}{
		{"id = 7", true, 1},
		{"7 = id", true, 1},
		{"id < 7", true, 7},
		{"7 > id", true, 7},
		{"id <= 7", true, 8},
		{"7 >= id", true, 8},
		{"id > 30", true, 9},
		{"30 < id", true, 9},
		{"id >= 30", true, 10},
		{"30 <= id", true, 10},
		{"id != 7", false, 39},
		{"id = 5 OR id = 6", false, 2},
		{"id < 10 AND tag = 't1'", true, 3},
		{"tag = 't1' AND id >= 30", true, 3},
		{"id != 7 AND f = 2", true, 1},
		{"id = NULL", true, 0},
		{"NULL < id", true, 0},
		{"id >= NULL", true, 0},
		// An int literal on the FLOAT column.
		{"f = 2", true, 1},
		{"2 = f", true, 1},
		{"f < 3", true, 6},
		{"f >= 19", true, 2},
		{"f = 0.5", true, 1},
		// A float literal on the INT column: integral ones probe the
		// index, others cannot be an INT key and plan no range.
		{"id = 1.0", true, 1},
		{"1.0 = id", true, 1},
		{"id >= 38.0", true, 2},
		{"id = 1.5", false, 0},
		{"id > 1.5", false, 38},
		{"1.5 < id", false, 38},
		{"id <= 1.5 AND f = 0.5", true, 1},
		// A literal the column cannot hold fails as on the heap.
		{"id = 'x'", false, -1},
	}
	for _, c := range cases {
		st, err := Parse("SELECT id FROM ix WHERE " + c.where)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		path, err := e.accessPath(tbl, h, "", st.(*Select).Where)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		if _, probe := path.(*exec.IndexScan); probe != c.probe {
			t.Errorf("%s: index probe %v, want %v", c.where, probe, c.probe)
		}

		r := same("SELECT id, f, tag FROM %s WHERE " + c.where + " ORDER BY id, f")
		got := -1
		if r != nil {
			got = len(r.Rows)
		}
		if got != c.rows {
			t.Errorf("%s: %s, want %d rows", c.where, resultString(r), c.rows)
		}
		mustExec(t, e, "BEGIN")
		if r := same("UPDATE %s SET id = id + 1000, tag = 'u' WHERE " + c.where); r != nil && r.Affected != c.rows {
			t.Errorf("UPDATE WHERE %s affected %d, want %d", c.where, r.Affected, c.rows)
		}
		same("SELECT id, f, tag FROM %s ORDER BY id, f")
		same("DELETE FROM %s WHERE " + c.where)
		same("SELECT id, f, tag FROM %s ORDER BY id, f")
		mustExec(t, e, "ROLLBACK")
	}

	// Every match is gathered before the first write, so rows moved by
	// the UPDATE are not met again.
	for _, q := range []string{
		"UPDATE %s SET id = id + 1000 WHERE id < 10",
		"UPDATE %s SET id = id - 1000 WHERE id >= 1000",
	} {
		if r := same(q); r == nil || r.Affected != 10 {
			t.Errorf("%s: %s, want 10 affected", q, resultString(r))
		}
	}
	same("SELECT id, f, tag FROM %s ORDER BY id, f")
}

// resultString renders a result's rows and affected count for comparison.
func resultString(r *Result) string {
	if r == nil {
		return "<error>"
	}
	var b strings.Builder
	for _, row := range r.Rows {
		b.WriteString("(")
		for i, v := range row {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteString(") ")
	}
	fmt.Fprintf(&b, "affected=%d", r.Affected)
	return b.String()
}

// TestUpdateByIndexedIDIsFlatInTableSize pins the point UPDATE's access
// path: the pages one `UPDATE ... WHERE id = k` touches may grow with
// the table only by the index's extra levels, where a heap scan touches
// every page.
func TestUpdateByIndexedIDIsFlatInTableSize(t *testing.T) {
	pins := func(rows int) (uint64, int) {
		e := newEngine(t)
		mustExec(t, e, "CREATE TABLE t (id INT, v INT)")
		mustExec(t, e, "CREATE INDEX t_id ON t (id)")
		for lo := 0; lo < rows; lo += 1000 {
			vals := make([]string, 0, 1000)
			for id := lo; id < lo+1000; id++ {
				vals = append(vals, fmt.Sprintf("(%d, 0)", id))
			}
			mustExec(t, e, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
		}
		before := e.Pool().Stats()
		if r := mustExec(t, e, fmt.Sprintf("UPDATE t SET v = 1 WHERE id = %d", rows/2)); r.Affected != 1 {
			t.Fatalf("%d rows: UPDATE affected %d, want 1", rows, r.Affected)
		}
		after := e.Pool().Stats()
		tbl, err := e.cat.GetTable("t")
		if err != nil {
			t.Fatal(err)
		}
		def, _ := tbl.Index("id")
		tree, err := e.tree(def)
		if err != nil {
			t.Fatal(err)
		}
		height, err := tree.Height()
		if err != nil {
			t.Fatal(err)
		}
		return after.Hits + after.Misses - before.Hits - before.Misses, height
	}
	small, smallHeight := pins(1000)
	large, largeHeight := pins(20000)
	if large > small+uint64(largeHeight-smallHeight) {
		t.Errorf("UPDATE by id pinned %d pages on 1,000 rows (height %d) and %d on 20,000 (height %d)",
			small, smallHeight, large, largeHeight)
	}
}

// newOrdersEngine loads rows into orders(id, cust, amount, note) with
// indexes on id and cust, 150 customers, over a pool that holds it all.
func newOrdersEngine(b *testing.B, rows int) *Engine {
	e, _ := newEngineFrames(b, 2048)
	mustExec(b, e, "CREATE TABLE orders (id INT, cust INT, amount INT, note TEXT)")
	mustExec(b, e, "CREATE INDEX orders_id ON orders (id)")
	mustExec(b, e, "CREATE INDEX orders_cust ON orders (cust)")
	for lo := 0; lo < rows; lo += 1000 {
		var vals []string
		for id := lo; id < lo+1000 && id < rows; id++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, 'note-%08d')", id, id%150, 3*id+1, id))
		}
		mustExec(b, e, "INSERT INTO orders VALUES "+strings.Join(vals, ", "))
	}
	return e
}

const benchOrders = 11000

func BenchmarkSQLUpdateByID(b *testing.B) {
	e := newOrdersEngine(b, benchOrders)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("UPDATE orders SET amount = %d WHERE id = %d", i, i*7919%benchOrders)
		if r, err := e.Execute(ctx, q); err != nil || r.Affected != 1 {
			b.Fatalf("%s: %v", q, err)
		}
	}
}

func BenchmarkSQLIndexedAggregate(b *testing.B) {
	e := newOrdersEngine(b, benchOrders)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("SELECT COUNT(*), SUM(amount) FROM orders WHERE cust = %d", i%150)
		if r, err := e.Execute(ctx, q); err != nil || len(r.Rows) != 1 || r.Rows[0][0].Int == 0 {
			b.Fatalf("%s: %v", q, err)
		}
	}
}
