package exec

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/access"
	"repro/internal/catalog"
)

func TestMergeJoinSkipsNullKeysAndDuplicates(t *testing.T) {
	ctx := context.Background()
	left := &Values{Cols: []string{"l.k"}, Rows: []access.Row{
		{access.NewInt(1)}, {access.Null()}, {access.NewInt(2)}, {access.NewInt(2)},
	}}
	right := &Values{Cols: []string{"r.k"}, Rows: []access.Row{
		{access.NewInt(2)}, {access.NewInt(2)}, {access.Null()}, {access.NewInt(3)},
	}}
	j := &MergeJoin{
		L:    &Sort{In: left, Keys: []SortKey{{E: Col{"l.k"}}}},
		R:    &Sort{In: right, Keys: []SortKey{{E: Col{"r.k"}}}},
		LKey: Col{"l.k"}, RKey: Col{"r.k"},
	}
	rows, err := Collect(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 duplicate join on key 2; NULLs never join.
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r[0].Int != 2 || r[1].Int != 2 {
			t.Fatalf("bad pair %v", r)
		}
	}
}

func TestMergeJoinDisjointInputs(t *testing.T) {
	ctx := context.Background()
	j := &MergeJoin{
		L:    &Values{Cols: []string{"a"}, Rows: []access.Row{{access.NewInt(1)}}},
		R:    &Values{Cols: []string{"b"}, Rows: []access.Row{{access.NewInt(9)}}},
		LKey: Col{"a"}, RKey: Col{"b"},
	}
	rows, err := Collect(ctx, j)
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
}

func TestHashJoinNullKeysNeverJoin(t *testing.T) {
	ctx := context.Background()
	j := &HashJoin{
		L:    &Values{Cols: []string{"a"}, Rows: []access.Row{{access.Null()}, {access.NewInt(1)}}},
		R:    &Values{Cols: []string{"b"}, Rows: []access.Row{{access.Null()}, {access.NewInt(1)}}},
		LKey: Col{"a"}, RKey: Col{"b"},
	}
	rows, err := Collect(ctx, j)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
}

func TestLimitEdgeCases(t *testing.T) {
	ctx := context.Background()
	mk := func() Operator {
		return &Values{Cols: []string{"x"}, Rows: []access.Row{
			{access.NewInt(0)}, {access.NewInt(1)}, {access.NewInt(2)},
		}}
	}
	// N = 0 yields nothing.
	rows, err := Collect(ctx, &Limit{In: mk(), N: 0})
	if err != nil || len(rows) != 0 {
		t.Fatalf("N=0: %v, %v", rows, err)
	}
	// Negative N = unlimited with offset.
	rows, err = Collect(ctx, &Limit{In: mk(), N: -1, Offset: 1})
	if err != nil || len(rows) != 2 || rows[0][0].Int != 1 {
		t.Fatalf("offset only: %v, %v", rows, err)
	}
	// Offset beyond input.
	rows, err = Collect(ctx, &Limit{In: mk(), N: 5, Offset: 10})
	if err != nil || len(rows) != 0 {
		t.Fatalf("big offset: %v, %v", rows, err)
	}
}

func TestFilterPropagatesEvalErrors(t *testing.T) {
	ctx := context.Background()
	f := &Filter{
		In:   &Values{Cols: []string{"x"}, Rows: []access.Row{{access.NewInt(1)}}},
		Pred: Cmp{Op: OpEq, L: Col{"nosuch"}, R: Lit{access.NewInt(1)}},
	}
	if _, err := Collect(ctx, f); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestSortPropagatesCompareErrors(t *testing.T) {
	ctx := context.Background()
	s := &Sort{
		In: &Values{Cols: []string{"x"}, Rows: []access.Row{
			{access.NewInt(1)}, {access.NewString("s")},
		}},
		Keys: []SortKey{{E: Col{"x"}}},
	}
	if _, err := Collect(ctx, s); err == nil {
		t.Fatal("mixed-type sort must error")
	}
}

func TestIndexScanContextCancel(t *testing.T) {
	// ctx cancellation propagates out of Open (scan path).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scan := NewSeqScan(&catalog.Table{
		Name:    "t",
		Columns: []catalog.Column{{Name: "a", Type: access.TypeInt}},
	}, newMemSource([]access.Row{{access.NewInt(1)}}), "")
	if err := scan.Open(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestCollectClosesOnError(t *testing.T) {
	ctx := context.Background()
	op := &failingOp{}
	if _, err := Collect(ctx, op); err == nil {
		t.Fatal("want error")
	}
	if !op.closed {
		t.Fatal("Collect must close the operator")
	}
}

type failingOp struct{ closed bool }

func (f *failingOp) Open(ctx context.Context) error { return nil }
func (f *failingOp) Next(ctx context.Context) (access.Row, error) {
	return nil, errors.New("boom")
}
func (f *failingOp) Close() error      { f.closed = true; return nil }
func (f *failingOp) Columns() []string { return nil }

func TestDistinctOnFullRows(t *testing.T) {
	ctx := context.Background()
	d := &Distinct{In: &Values{Cols: []string{"a", "b"}, Rows: []access.Row{
		{access.NewInt(1), access.NewString("x")},
		{access.NewInt(1), access.NewString("x")},
		{access.NewInt(1), access.NewString("y")},
	}}}
	rows, err := Collect(ctx, d)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
}

func TestAggregateGroupsWithNullKeys(t *testing.T) {
	ctx := context.Background()
	agg := &HashAggregate{
		In: &Values{Cols: []string{"g", "v"}, Rows: []access.Row{
			{access.Null(), access.NewInt(1)},
			{access.Null(), access.NewInt(2)},
			{access.NewInt(1), access.NewInt(3)},
		}},
		GroupBy: []Expr{Col{"g"}},
		GroupAs: []string{"g"},
		Aggs:    []AggSpec{{Func: AggSum, Arg: Col{"v"}, As: "s"}},
	}
	rows, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	// NULL forms its own group.
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	var nullSum int64
	for _, r := range rows {
		if r[0].IsNull() {
			nullSum = r[1].Int
		}
	}
	if nullSum != 3 {
		t.Fatalf("null group sum = %d", nullSum)
	}
}

func TestNestedLoopJoinEOFAfterDrain(t *testing.T) {
	ctx := context.Background()
	j := &NestedLoopJoin{
		L: &Values{Cols: []string{"a"}, Rows: []access.Row{{access.NewInt(1)}}},
		R: &Values{Cols: []string{"b"}, Rows: []access.Row{{access.NewInt(2)}}},
	}
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBindMatchesNameResolution(t *testing.T) {
	cols := []string{"t.a", "t.b", "u.b"}
	e := Logic{Op: OpAnd,
		L: Cmp{Op: OpLt, L: Col{"a"}, R: Arith{Op: OpAdd, L: Col{"t.b"}, R: Lit{access.NewInt(1)}}},
		R: Not{E: IsNull{E: Col{"u.b"}}},
	}
	bound, err := Bind(e, cols)
	if err != nil {
		t.Fatal(err)
	}
	if bound.String() != e.String() {
		t.Fatalf("String() = %s, want %s", bound, e)
	}
	for _, row := range []access.Row{
		{access.NewInt(1), access.NewInt(1), access.NewInt(0)},
		{access.NewInt(5), access.NewInt(1), access.NewInt(0)},
		{access.NewInt(1), access.NewInt(1), access.Null()},
		{access.Null(), access.NewInt(1), access.NewInt(0)},
	} {
		want, werr := e.Eval(row, cols)
		got, gerr := bound.Eval(row, nil)
		if got.String() != want.String() || (werr == nil) != (gerr == nil) {
			t.Errorf("row %v: bound %v, %v; by name %v, %v", row, got, gerr, want, werr)
		}
	}
	// Unknown and ambiguous names fail at Bind, as they would per row.
	for _, name := range []string{"nosuch", "b"} {
		if _, err := Bind(Not{E: Col{name}}, cols); !errors.Is(err, ErrUnknownColumn) {
			t.Errorf("Bind(%s) err = %v, want ErrUnknownColumn", name, err)
		}
	}
	agg := &HashAggregate{
		In:   &Values{Cols: []string{"x"}},
		Aggs: []AggSpec{{Func: AggSum, Arg: Col{"nosuch"}, As: "s"}},
	}
	if _, err := Collect(context.Background(), agg); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("aggregate over unknown column: err = %v", err)
	}
}
