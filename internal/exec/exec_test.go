package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/storage"
)

// memSource is an in-memory RowSource for operator tests.
type memSource struct {
	recs map[access.RID][]byte
	ord  []access.RID
}

func newMemSource(rows []access.Row) *memSource {
	s := &memSource{recs: make(map[access.RID][]byte)}
	for i, r := range rows {
		rid := access.RID{Page: storage.PageID(i/10 + 1), Slot: uint16(i % 10)}
		s.recs[rid] = access.EncodeRow(r)
		s.ord = append(s.ord, rid)
	}
	return s
}

func (s *memSource) Scan(fn func(access.RID, []byte) error) error {
	for _, rid := range s.ord {
		if err := fn(rid, s.recs[rid]); err != nil {
			return err
		}
	}
	return nil
}

func (s *memSource) Get(rid access.RID) ([]byte, error) {
	rec, ok := s.recs[rid]
	if !ok {
		return nil, errors.New("memSource: no such rid")
	}
	return rec, nil
}

func usersTable() *catalog.Table {
	return &catalog.Table{
		Name: "users",
		Columns: []catalog.Column{
			{Name: "id", Type: access.TypeInt},
			{Name: "name", Type: access.TypeString},
			{Name: "age", Type: access.TypeInt},
		},
	}
}

func userRows() []access.Row {
	return []access.Row{
		{access.NewInt(1), access.NewString("ann"), access.NewInt(30)},
		{access.NewInt(2), access.NewString("bob"), access.NewInt(25)},
		{access.NewInt(3), access.NewString("cay"), access.NewInt(35)},
		{access.NewInt(4), access.NewString("dan"), access.NewInt(25)},
	}
}

func userScan() *SeqScan {
	return NewSeqScan(usersTable(), newMemSource(userRows()), "")
}

func TestSeqScan(t *testing.T) {
	ctx := context.Background()
	scan := userScan()
	rows, err := Collect(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	cols := scan.Columns()
	if len(cols) != 3 || cols[0] != "users.id" {
		t.Fatalf("cols = %v", cols)
	}
	// Alias qualifies columns.
	aliased := NewSeqScan(usersTable(), newMemSource(userRows()), "u")
	if aliased.Columns()[1] != "u.name" {
		t.Fatalf("aliased cols = %v", aliased.Columns())
	}
}

func TestFilterAndExpressions(t *testing.T) {
	ctx := context.Background()
	f := &Filter{
		In:   userScan(),
		Pred: Cmp{Op: OpEq, L: Col{"age"}, R: Lit{access.NewInt(25)}},
	}
	rows, err := Collect(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r[2].Int != 25 {
			t.Fatalf("bad row %v", r)
		}
	}
	// Compound predicate with OR/AND/NOT.
	f2 := &Filter{
		In: userScan(),
		Pred: Logic{Op: OpOr,
			L: Cmp{Op: OpEq, L: Col{"name"}, R: Lit{access.NewString("ann")}},
			R: Logic{Op: OpAnd,
				L: Cmp{Op: OpGt, L: Col{"age"}, R: Lit{access.NewInt(30)}},
				R: Not{Cmp{Op: OpEq, L: Col{"id"}, R: Lit{access.NewInt(99)}}},
			},
		},
	}
	rows, err = Collect(ctx, f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // ann + cay
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
}

func TestProjectArithmetic(t *testing.T) {
	ctx := context.Background()
	p := &Project{
		In: userScan(),
		Exprs: []Expr{
			Col{"name"},
			Arith{Op: OpMul, L: Col{"age"}, R: Lit{access.NewInt(2)}},
			Arith{Op: OpAdd, L: Col{"name"}, R: Lit{access.NewString("!")}},
		},
		Aliases: []string{"name", "dbl", "excl"},
	}
	rows, err := Collect(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1].Int != 60 || rows[0][2].Str != "ann!" {
		t.Fatalf("row = %v", rows[0])
	}
	if got := p.Columns(); got[1] != "dbl" {
		t.Fatalf("cols = %v", got)
	}
}

func TestArithmeticSemantics(t *testing.T) {
	cols := []string{"x"}
	row := access.Row{access.NewInt(7)}
	cases := []struct {
		e    Expr
		want access.Value
	}{
		{Arith{OpAdd, Col{"x"}, Lit{access.NewInt(3)}}, access.NewInt(10)},
		{Arith{OpSub, Col{"x"}, Lit{access.NewInt(3)}}, access.NewInt(4)},
		{Arith{OpMul, Col{"x"}, Lit{access.NewFloat(0.5)}}, access.NewFloat(3.5)},
		{Arith{OpDiv, Col{"x"}, Lit{access.NewInt(2)}}, access.NewInt(3)},
		{Arith{OpMod, Col{"x"}, Lit{access.NewInt(4)}}, access.NewInt(3)},
	}
	for _, c := range cases {
		got, err := c.e.Eval(row, cols)
		if err != nil || !access.Equal(got, c.want) {
			t.Errorf("%s = %v, %v (want %v)", c.e, got, err, c.want)
		}
	}
	// Division by zero errors.
	if _, err := (Arith{OpDiv, Col{"x"}, Lit{access.NewInt(0)}}).Eval(row, cols); err == nil {
		t.Fatal("div by zero must error")
	}
	// NULL propagation.
	got, err := (Arith{OpAdd, Col{"x"}, Lit{access.Null()}}).Eval(row, cols)
	if err != nil || !got.IsNull() {
		t.Fatalf("NULL arith = %v, %v", got, err)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	cols := []string{"n"}
	row := access.Row{access.Null()}
	null := Cmp{Op: OpEq, L: Col{"n"}, R: Lit{access.NewInt(1)}} // NULL
	tru := Lit{access.NewBool(true)}
	fls := Lit{access.NewBool(false)}
	cases := []struct {
		e        Expr
		wantNull bool
		want     bool
	}{
		{Logic{OpAnd, null, tru}, true, false},
		{Logic{OpAnd, null, fls}, false, false},
		{Logic{OpOr, null, tru}, false, true},
		{Logic{OpOr, null, fls}, true, false},
		{Not{null}, true, false},
		{IsNull{E: Col{"n"}}, false, true},
		{IsNull{E: Col{"n"}, Neg: true}, false, false},
	}
	for _, c := range cases {
		v, err := c.e.Eval(row, cols)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if c.wantNull != v.IsNull() {
			t.Errorf("%s: null = %v, want %v", c.e, v.IsNull(), c.wantNull)
		}
		if !c.wantNull && v.Bool != c.want {
			t.Errorf("%s = %v, want %v", c.e, v.Bool, c.want)
		}
	}
}

func TestColumnResolution(t *testing.T) {
	cols := []string{"users.id", "users.name", "orders.id"}
	if i, err := ColumnIndex(cols, "users.name"); err != nil || i != 1 {
		t.Fatalf("qualified: %d, %v", i, err)
	}
	if i, err := ColumnIndex(cols, "name"); err != nil || i != 1 {
		t.Fatalf("bare: %d, %v", i, err)
	}
	if _, err := ColumnIndex(cols, "id"); err == nil {
		t.Fatal("ambiguous bare name must fail")
	}
	if _, err := ColumnIndex(cols, "zzz"); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestSortAndLimit(t *testing.T) {
	ctx := context.Background()
	s := &Sort{
		In: userScan(),
		Keys: []SortKey{
			{E: Col{"age"}, Desc: false},
			{E: Col{"name"}, Desc: true},
		},
	}
	rows, err := Collect(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	// age asc, name desc within ties: dan(25), bob(25), ann(30), cay(35)
	want := []string{"dan", "bob", "ann", "cay"}
	for i, w := range want {
		if rows[i][1].Str != w {
			t.Fatalf("order = %v", rows)
		}
	}
	l := &Limit{In: &Sort{In: userScan(), Keys: []SortKey{{E: Col{"id"}}}}, N: 2, Offset: 1}
	rows, err = Collect(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int != 2 || rows[1][0].Int != 3 {
		t.Fatalf("limit rows = %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	ctx := context.Background()
	d := &Distinct{In: &Project{
		In:      userScan(),
		Exprs:   []Expr{Col{"age"}},
		Aliases: []string{"age"},
	}}
	rows, err := Collect(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("distinct ages = %v", rows)
	}
}

func ordersTable() *catalog.Table {
	return &catalog.Table{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "oid", Type: access.TypeInt},
			{Name: "user_id", Type: access.TypeInt},
			{Name: "total", Type: access.TypeFloat},
		},
	}
}

func orderRows() []access.Row {
	return []access.Row{
		{access.NewInt(100), access.NewInt(1), access.NewFloat(9.5)},
		{access.NewInt(101), access.NewInt(2), access.NewFloat(15.0)},
		{access.NewInt(102), access.NewInt(1), access.NewFloat(3.25)},
		{access.NewInt(103), access.NewInt(9), access.NewFloat(1.0)},
	}
}

func TestJoinsAgree(t *testing.T) {
	ctx := context.Background()
	mk := func() (Operator, Operator) {
		return NewSeqScan(usersTable(), newMemSource(userRows()), ""),
			NewSeqScan(ordersTable(), newMemSource(orderRows()), "")
	}
	// Nested loop.
	l, r := mk()
	nlj := &NestedLoopJoin{L: l, R: r,
		Pred: Cmp{Op: OpEq, L: Col{"users.id"}, R: Col{"orders.user_id"}}}
	nrows, err := Collect(ctx, nlj)
	if err != nil {
		t.Fatal(err)
	}
	// Hash join.
	l, r = mk()
	hj := &HashJoin{L: l, R: r, LKey: Col{"users.id"}, RKey: Col{"orders.user_id"}}
	hrows, err := Collect(ctx, hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(nrows) != 3 || len(hrows) != 3 {
		t.Fatalf("join sizes: nlj=%d hash=%d", len(nrows), len(hrows))
	}
	// Same multiset of (user id, order id) pairs.
	sig := func(rows []access.Row) map[string]int {
		m := map[string]int{}
		for _, r := range rows {
			m[fmt.Sprintf("%d-%d", r[0].Int, r[3].Int)]++
		}
		return m
	}
	ns, hs := sig(nrows), sig(hrows)
	for k, v := range ns {
		if hs[k] != v {
			t.Fatalf("join mismatch on %s: nlj=%d hash=%d", k, v, hs[k])
		}
	}
	if cols := nlj.Columns(); len(cols) != 6 || cols[3] != "orders.oid" {
		t.Fatalf("join cols = %v", cols)
	}
}

func TestCrossJoin(t *testing.T) {
	ctx := context.Background()
	j := &NestedLoopJoin{
		L: NewSeqScan(usersTable(), newMemSource(userRows()), ""),
		R: NewSeqScan(ordersTable(), newMemSource(orderRows()), ""),
	}
	rows, err := Collect(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("cross join = %d rows", len(rows))
	}
}

func TestHashAggregate(t *testing.T) {
	ctx := context.Background()
	agg := &HashAggregate{
		In:      userScan(),
		GroupBy: []Expr{Col{"age"}},
		GroupAs: []string{"age"},
		Aggs: []AggSpec{
			{Func: AggCount, As: "n"},
			{Func: AggMin, Arg: Col{"name"}, As: "first_name"},
		},
	}
	rows, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %v", rows)
	}
	byAge := map[int64]access.Row{}
	for _, r := range rows {
		byAge[r[0].Int] = r
	}
	if byAge[25][1].Int != 2 || byAge[25][2].Str != "bob" {
		t.Fatalf("group 25 = %v", byAge[25])
	}
	if byAge[30][1].Int != 1 {
		t.Fatalf("group 30 = %v", byAge[30])
	}
}

func TestGlobalAggregates(t *testing.T) {
	ctx := context.Background()
	agg := &HashAggregate{
		In: userScan(),
		Aggs: []AggSpec{
			{Func: AggCount, As: "n"},
			{Func: AggSum, Arg: Col{"age"}, As: "sum_age"},
			{Func: AggAvg, Arg: Col{"age"}, As: "avg_age"},
			{Func: AggMin, Arg: Col{"age"}, As: "min_age"},
			{Func: AggMax, Arg: Col{"age"}, As: "max_age"},
		},
	}
	rows, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r[0].Int != 4 || r[1].Int != 115 || r[2].Float != 28.75 || r[3].Int != 25 || r[4].Int != 35 {
		t.Fatalf("aggregates = %v", r)
	}
	// Empty input still yields one row with COUNT 0 and NULL sums.
	empty := &HashAggregate{
		In: &Values{Cols: []string{"x"}},
		Aggs: []AggSpec{
			{Func: AggCount, As: "n"},
			{Func: AggSum, Arg: Col{"x"}, As: "s"},
		},
	}
	rows, err = Collect(ctx, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty agg = %v", rows)
	}
}

func TestIndexScan(t *testing.T) {
	ctx := context.Background()
	d, _ := storage.OpenDisk(storage.NewMemDevice())
	pool := buffer.New(d, 32, buffer.NewLRU())
	fm, _ := storage.OpenFileManager(pool)
	h, err := access.OpenHeap("users", fm, pool)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := index.Create(pool, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range userRows() {
		rid, err := h.Insert(nil, access.EncodeRow(r))
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(access.EncodeKey(r[2]), rid); err != nil { // index on age
			t.Fatal(err)
		}
	}
	lo, hi := access.NewInt(25), access.NewInt(30)
	scan := &IndexScan{Table: usersTable(), Source: h, Tree: tree, Lo: &lo, Hi: &hi}
	rows, err := Collect(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // ages 25,25,30
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r[2].Int < 25 || r[2].Int > 30 {
			t.Fatalf("out of range row %v", r)
		}
	}
	// Unbounded scan returns everything in age order.
	all := &IndexScan{Table: usersTable(), Source: h, Tree: tree}
	rows, err = Collect(ctx, all)
	if err != nil || len(rows) != 4 {
		t.Fatalf("all rows = %v, %v", rows, err)
	}
	prev := int64(-1)
	for _, r := range rows {
		if r[2].Int < prev {
			t.Fatal("index scan must be ordered")
		}
		prev = r[2].Int
	}
}

func TestValuesOperator(t *testing.T) {
	ctx := context.Background()
	v := &Values{Cols: []string{"a"}, Rows: []access.Row{{access.NewInt(1)}, {access.NewInt(2)}}}
	rows, err := Collect(ctx, v)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
	// Reopen resets.
	if err := v.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if r, err := v.Next(ctx); err != nil || r[0].Int != 1 {
		t.Fatalf("after reopen: %v, %v", r, err)
	}
	_, _ = v.Next(ctx)
	if _, err := v.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v", err)
	}
}
