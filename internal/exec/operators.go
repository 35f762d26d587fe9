package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/catalog"
	"repro/internal/index"
)

// Operator is the Volcano-style iterator interface: Open, repeated Next
// until io.EOF, Close. Operators compose into trees by the planner.
type Operator interface {
	Open(ctx context.Context) error
	Next(ctx context.Context) (access.Row, error)
	Close() error
	// Columns names the output schema.
	Columns() []string
}

// RowSource abstracts the heap-file surface operators need, so the same
// operator tree runs over a native heap or over a storage service
// reached through the kernel (the granularity experiments exploit
// this).
type RowSource interface {
	Scan(fn func(rid access.RID, rec []byte) error) error
	Get(rid access.RID) ([]byte, error)
}

// SeqScan reads every row of a table through a RowSource.
type SeqScan struct {
	Table  *catalog.Table
	Source RowSource
	Alias  string

	rows []access.Row
	pos  int
	cols []string
}

// NewSeqScan creates a sequential scan. alias qualifies output column
// names ("" uses the table name).
func NewSeqScan(t *catalog.Table, src RowSource, alias string) *SeqScan {
	return &SeqScan{Table: t, Source: src, Alias: alias}
}

// Columns implements Operator.
func (s *SeqScan) Columns() []string {
	if s.cols == nil {
		name := s.Alias
		if name == "" {
			name = s.Table.Name
		}
		for _, c := range s.Table.Columns {
			s.cols = append(s.cols, name+"."+c.Name)
		}
	}
	return s.cols
}

// Open implements Operator: every row is decoded eagerly, page by page.
func (s *SeqScan) Open(ctx context.Context) error {
	s.rows = s.rows[:0]
	s.pos = 0
	return s.Each(ctx, func(_ access.RID, row access.Row) error {
		s.rows = append(s.rows, row)
		return nil
	})
}

// Each calls fn with every row of the table and its RID, in heap order.
func (s *SeqScan) Each(ctx context.Context, fn func(rid access.RID, row access.Row) error) error {
	return s.Source.Scan(func(rid access.RID, rec []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		row, err := access.DecodeRow(rec)
		if err != nil {
			return err
		}
		return fn(rid, row)
	})
}

// Next implements Operator.
func (s *SeqScan) Next(ctx context.Context) (access.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

// Close implements Operator.
func (s *SeqScan) Close() error {
	s.rows = nil
	return nil
}

// IndexScan reads rows whose indexed column lies in [Lo, Hi] via a
// B+tree, fetching each row from the RowSource.
type IndexScan struct {
	Table  *catalog.Table
	Source RowSource
	Tree   *index.BTree
	Alias  string
	// Lo and Hi bound the indexed column (inclusive); nil = unbounded.
	Lo, Hi *access.Value

	rids []access.RID
	pos  int
	cols []string
}

// Columns implements Operator.
func (s *IndexScan) Columns() []string {
	if s.cols == nil {
		name := s.Alias
		if name == "" {
			name = s.Table.Name
		}
		for _, c := range s.Table.Columns {
			s.cols = append(s.cols, name+"."+c.Name)
		}
	}
	return s.cols
}

// Open implements Operator: the RID list comes from a tree range scan.
func (s *IndexScan) Open(ctx context.Context) error {
	s.pos = 0
	var err error
	s.rids, err = s.rangeRIDs(ctx, s.rids[:0])
	return err
}

// rangeRIDs appends the RID of every index entry in [Lo, Hi] to rids.
func (s *IndexScan) rangeRIDs(ctx context.Context, rids []access.RID) ([]access.RID, error) {
	var lo, hi []byte
	if s.Lo != nil {
		lo = access.EncodeKey(*s.Lo)
	}
	if s.Hi != nil {
		hi = nextKey(access.EncodeKey(*s.Hi)) // inclusive upper bound
	}
	err := s.Tree.Range(lo, hi, func(key []byte, rid access.RID) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rids = append(rids, rid)
		return nil
	})
	return rids, err
}

// Each calls fn with every row in the range and its RID, in key order.
// The whole RID list is read before the first row is fetched, so neither
// the fetch nor fn runs under the tree's latches.
func (s *IndexScan) Each(ctx context.Context, fn func(rid access.RID, row access.Row) error) error {
	rids, err := s.rangeRIDs(ctx, nil)
	if err != nil {
		return err
	}
	for _, rid := range rids {
		rec, err := s.Source.Get(rid)
		if err != nil {
			return err
		}
		row, err := access.DecodeRow(rec)
		if err != nil {
			return err
		}
		if err := fn(rid, row); err != nil {
			return err
		}
	}
	return nil
}

// nextKey returns the smallest key strictly greater than k.
func nextKey(k []byte) []byte { return append(append([]byte(nil), k...), 0x00) }

// Next implements Operator.
func (s *IndexScan) Next(ctx context.Context) (access.Row, error) {
	if s.pos >= len(s.rids) {
		return nil, io.EOF
	}
	rid := s.rids[s.pos]
	s.pos++
	rec, err := s.Source.Get(rid)
	if err != nil {
		return nil, err
	}
	return access.DecodeRow(rec)
}

// Close implements Operator.
func (s *IndexScan) Close() error {
	s.rids = nil
	return nil
}

// Values serves literal rows (INSERT ... VALUES and tests).
type Values struct {
	Cols []string
	Rows []access.Row
	pos  int
}

// Columns implements Operator.
func (v *Values) Columns() []string { return v.Cols }

// Open implements Operator.
func (v *Values) Open(ctx context.Context) error { v.pos = 0; return nil }

// Next implements Operator.
func (v *Values) Next(ctx context.Context) (access.Row, error) {
	if v.pos >= len(v.Rows) {
		return nil, io.EOF
	}
	r := v.Rows[v.pos]
	v.pos++
	return r, nil
}

// Close implements Operator.
func (v *Values) Close() error { return nil }

// Filter passes rows satisfying a predicate.
type Filter struct {
	In   Operator
	Pred Expr

	pred Expr // Pred bound to In's columns
}

// Columns implements Operator.
func (f *Filter) Columns() []string { return f.In.Columns() }

// Open implements Operator.
func (f *Filter) Open(ctx context.Context) error {
	pred, err := Bind(f.Pred, f.In.Columns())
	if err != nil {
		return err
	}
	f.pred = pred
	return f.In.Open(ctx)
}

// Next implements Operator.
func (f *Filter) Next(ctx context.Context) (access.Row, error) {
	cols := f.In.Columns()
	for {
		row, err := f.In.Next(ctx)
		if err != nil {
			return nil, err
		}
		ok, err := Truthy(f.pred, row, cols)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.In.Close() }

// Project computes output expressions with aliases.
type Project struct {
	In      Operator
	Exprs   []Expr
	Aliases []string
}

// Columns implements Operator.
func (p *Project) Columns() []string { return p.Aliases }

// Open implements Operator.
func (p *Project) Open(ctx context.Context) error { return p.In.Open(ctx) }

// Next implements Operator.
func (p *Project) Next(ctx context.Context) (access.Row, error) {
	row, err := p.In.Next(ctx)
	if err != nil {
		return nil, err
	}
	cols := p.In.Columns()
	out := make(access.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(row, cols)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.In.Close() }

// Limit stops after N rows, skipping Offset first.
type Limit struct {
	In     Operator
	N      int64
	Offset int64
	done   int64
	skip   int64
}

// Columns implements Operator.
func (l *Limit) Columns() []string { return l.In.Columns() }

// Open implements Operator.
func (l *Limit) Open(ctx context.Context) error {
	l.done, l.skip = 0, 0
	return l.In.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next(ctx context.Context) (access.Row, error) {
	for l.skip < l.Offset {
		if _, err := l.In.Next(ctx); err != nil {
			return nil, err
		}
		l.skip++
	}
	if l.N >= 0 && l.done >= l.N {
		return nil, io.EOF
	}
	row, err := l.In.Next(ctx)
	if err != nil {
		return nil, err
	}
	l.done++
	return row, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.In.Close() }

// SortKey is one ORDER BY term.
type SortKey struct {
	E    Expr
	Desc bool
}

// Sort materialises the input and emits it ordered by the keys.
type Sort struct {
	In   Operator
	Keys []SortKey

	rows []access.Row
	pos  int
}

// Columns implements Operator.
func (s *Sort) Columns() []string { return s.In.Columns() }

// Open implements Operator: the input is drained and sorted eagerly.
func (s *Sort) Open(ctx context.Context) error {
	if err := s.In.Open(ctx); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	s.pos = 0
	cols := s.In.Columns()
	for {
		row, err := s.In.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		s.rows = append(s.rows, row)
	}
	var sortErr error
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, k := range s.Keys {
			vi, err := k.E.Eval(s.rows[i], cols)
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := k.E.Eval(s.rows[j], cols)
			if err != nil {
				sortErr = err
				return false
			}
			c, err := access.Compare(vi, vj)
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return sortErr
}

// Next implements Operator.
func (s *Sort) Next(ctx context.Context) (access.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.rows = nil
	return s.In.Close()
}

// Distinct removes duplicate rows (by encoded form).
type Distinct struct {
	In   Operator
	seen map[string]bool
}

// Columns implements Operator.
func (d *Distinct) Columns() []string { return d.In.Columns() }

// Open implements Operator.
func (d *Distinct) Open(ctx context.Context) error {
	d.seen = make(map[string]bool)
	return d.In.Open(ctx)
}

// Next implements Operator.
func (d *Distinct) Next(ctx context.Context) (access.Row, error) {
	for {
		row, err := d.In.Next(ctx)
		if err != nil {
			return nil, err
		}
		key := string(access.EncodeRow(row))
		if !d.seen[key] {
			d.seen[key] = true
			return row, nil
		}
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen = nil
	return d.In.Close()
}

// NestedLoopJoin joins two inputs with an arbitrary predicate,
// materialising the right side once.
type NestedLoopJoin struct {
	L, R Operator
	Pred Expr // nil = cross join

	right   []access.Row
	cur     access.Row
	rpos    int
	cols    []string
	started bool
}

// Columns implements Operator.
func (j *NestedLoopJoin) Columns() []string {
	if j.cols == nil {
		j.cols = append(append([]string(nil), j.L.Columns()...), j.R.Columns()...)
	}
	return j.cols
}

// Open implements Operator.
func (j *NestedLoopJoin) Open(ctx context.Context) error {
	if err := j.L.Open(ctx); err != nil {
		return err
	}
	if err := j.R.Open(ctx); err != nil {
		return err
	}
	j.right = j.right[:0]
	for {
		row, err := j.R.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		j.right = append(j.right, row)
	}
	j.cur = nil
	j.rpos = 0
	j.started = true
	return nil
}

// Next implements Operator.
func (j *NestedLoopJoin) Next(ctx context.Context) (access.Row, error) {
	cols := j.Columns()
	for {
		if j.cur == nil {
			row, err := j.L.Next(ctx)
			if err != nil {
				return nil, err
			}
			j.cur = row
			j.rpos = 0
		}
		for j.rpos < len(j.right) {
			r := j.right[j.rpos]
			j.rpos++
			joined := append(append(access.Row{}, j.cur...), r...)
			if j.Pred == nil {
				return joined, nil
			}
			ok, err := Truthy(j.Pred, joined, cols)
			if err != nil {
				return nil, err
			}
			if ok {
				return joined, nil
			}
		}
		j.cur = nil
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.right = nil
	lerr := j.L.Close()
	rerr := j.R.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// HashJoin equi-joins two inputs on LKey = RKey, building a hash table
// over the right side.
type HashJoin struct {
	L, R       Operator
	LKey, RKey Expr

	table   map[string][]access.Row
	cur     access.Row
	matches []access.Row
	mpos    int
	cols    []string
}

// Columns implements Operator.
func (j *HashJoin) Columns() []string {
	if j.cols == nil {
		j.cols = append(append([]string(nil), j.L.Columns()...), j.R.Columns()...)
	}
	return j.cols
}

// Open implements Operator: build phase over the right input.
func (j *HashJoin) Open(ctx context.Context) error {
	if err := j.L.Open(ctx); err != nil {
		return err
	}
	if err := j.R.Open(ctx); err != nil {
		return err
	}
	j.table = make(map[string][]access.Row)
	rcols := j.R.Columns()
	for {
		row, err := j.R.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		v, err := j.RKey.Eval(row, rcols)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue // NULL keys never join
		}
		k := string(access.EncodeKey(v))
		j.table[k] = append(j.table[k], row)
	}
	j.cur = nil
	j.matches = nil
	j.mpos = 0
	return nil
}

// Next implements Operator: probe phase over the left input.
func (j *HashJoin) Next(ctx context.Context) (access.Row, error) {
	lcols := j.L.Columns()
	for {
		if j.mpos < len(j.matches) {
			r := j.matches[j.mpos]
			j.mpos++
			return append(append(access.Row{}, j.cur...), r...), nil
		}
		row, err := j.L.Next(ctx)
		if err != nil {
			return nil, err
		}
		v, err := j.LKey.Eval(row, lcols)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		j.cur = row
		j.matches = j.table[string(access.EncodeKey(v))]
		j.mpos = 0
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table = nil
	lerr := j.L.Close()
	rerr := j.R.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// AggFunc names an aggregate function.
type AggFunc string

// Aggregate functions.
const (
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// AggSpec is one aggregate output: Func over Arg (nil Arg = COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Arg  Expr
	As   string
}

// HashAggregate groups rows by the GroupBy expressions and computes
// aggregates per group. Output columns: group expressions then
// aggregates.
type HashAggregate struct {
	In      Operator
	GroupBy []Expr
	GroupAs []string
	Aggs    []AggSpec

	out  []access.Row
	pos  int
	cols []string
}

type aggState struct {
	groupVals access.Row
	count     int64
	counts    []int64 // non-null per agg
	sums      []float64
	intSums   []int64
	intOnly   []bool
	mins      []access.Value
	maxs      []access.Value
}

// Columns implements Operator.
func (a *HashAggregate) Columns() []string {
	if a.cols == nil {
		a.cols = append([]string(nil), a.GroupAs...)
		for _, g := range a.Aggs {
			a.cols = append(a.cols, g.As)
		}
	}
	return a.cols
}

// Open implements Operator: the input is fully aggregated eagerly.
func (a *HashAggregate) Open(ctx context.Context) error {
	cols := a.In.Columns()
	var err error
	groupBy := make([]Expr, len(a.GroupBy))
	for i, g := range a.GroupBy {
		if groupBy[i], err = Bind(g, cols); err != nil {
			return err
		}
	}
	args := make([]Expr, len(a.Aggs)) // nil for COUNT(*)
	for i, spec := range a.Aggs {
		if args[i], err = Bind(spec.Arg, cols); err != nil {
			return err
		}
	}
	if err = a.In.Open(ctx); err != nil {
		return err
	}
	groups := make(map[string]*aggState)
	var order []string
	for {
		row, err := a.In.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		gvals := make(access.Row, len(groupBy))
		var keyParts []string
		for i, g := range groupBy {
			v, err := g.Eval(row, cols)
			if err != nil {
				return err
			}
			gvals[i] = v
			keyParts = append(keyParts, string(access.EncodeKey(v)))
		}
		key := strings.Join(keyParts, "\x1f")
		st := groups[key]
		if st == nil {
			st = &aggState{
				groupVals: gvals,
				counts:    make([]int64, len(a.Aggs)),
				sums:      make([]float64, len(a.Aggs)),
				intSums:   make([]int64, len(a.Aggs)),
				intOnly:   make([]bool, len(a.Aggs)),
				mins:      make([]access.Value, len(a.Aggs)),
				maxs:      make([]access.Value, len(a.Aggs)),
			}
			for i := range st.intOnly {
				st.intOnly[i] = true
				st.mins[i] = access.Null()
				st.maxs[i] = access.Null()
			}
			groups[key] = st
			order = append(order, key)
		}
		st.count++
		for i, arg := range args {
			if arg == nil {
				continue // COUNT(*) uses st.count
			}
			v, err := arg.Eval(row, cols)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue
			}
			st.counts[i]++
			if f, ok := v.AsFloat(); ok {
				st.sums[i] += f
				if v.Type == access.TypeInt {
					st.intSums[i] += v.Int
				} else {
					st.intOnly[i] = false
				}
			}
			if st.mins[i].IsNull() {
				st.mins[i] = v
			} else if c, err := access.Compare(v, st.mins[i]); err == nil && c < 0 {
				st.mins[i] = v
			}
			if st.maxs[i].IsNull() {
				st.maxs[i] = v
			} else if c, err := access.Compare(v, st.maxs[i]); err == nil && c > 0 {
				st.maxs[i] = v
			}
		}
	}
	// Global aggregate over empty input still yields one row.
	if len(groups) == 0 && len(a.GroupBy) == 0 {
		st := &aggState{
			counts:  make([]int64, len(a.Aggs)),
			sums:    make([]float64, len(a.Aggs)),
			intSums: make([]int64, len(a.Aggs)),
			intOnly: make([]bool, len(a.Aggs)),
			mins:    make([]access.Value, len(a.Aggs)),
			maxs:    make([]access.Value, len(a.Aggs)),
		}
		for i := range st.intOnly {
			st.intOnly[i] = true
			st.mins[i] = access.Null()
			st.maxs[i] = access.Null()
		}
		groups[""] = st
		order = append(order, "")
	}
	a.out = a.out[:0]
	a.pos = 0
	for _, key := range order {
		st := groups[key]
		row := append(access.Row{}, st.groupVals...)
		for i, spec := range a.Aggs {
			switch spec.Func {
			case AggCount:
				if spec.Arg == nil {
					row = append(row, access.NewInt(st.count))
				} else {
					row = append(row, access.NewInt(st.counts[i]))
				}
			case AggSum:
				if st.counts[i] == 0 {
					row = append(row, access.Null())
				} else if st.intOnly[i] {
					row = append(row, access.NewInt(st.intSums[i]))
				} else {
					row = append(row, access.NewFloat(st.sums[i]))
				}
			case AggAvg:
				if st.counts[i] == 0 {
					row = append(row, access.Null())
				} else {
					row = append(row, access.NewFloat(st.sums[i]/float64(st.counts[i])))
				}
			case AggMin:
				row = append(row, st.mins[i])
			case AggMax:
				row = append(row, st.maxs[i])
			default:
				return fmt.Errorf("%w: aggregate %q", ErrBadExpr, spec.Func)
			}
		}
		a.out = append(a.out, row)
	}
	return nil
}

// Next implements Operator.
func (a *HashAggregate) Next(ctx context.Context) (access.Row, error) {
	if a.pos >= len(a.out) {
		return nil, io.EOF
	}
	r := a.out[a.pos]
	a.pos++
	return r, nil
}

// Close implements Operator.
func (a *HashAggregate) Close() error {
	a.out = nil
	return a.In.Close()
}

// Collect drains an operator into a slice (convenience for callers and
// tests).
func Collect(ctx context.Context, op Operator) ([]access.Row, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []access.Row
	for {
		row, err := op.Next(ctx)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
}
