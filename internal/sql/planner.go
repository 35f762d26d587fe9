package sql

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/access"
	"repro/internal/catalog"
	"repro/internal/exec"
)

// Planner errors.
var (
	// ErrBadQuery is returned for semantically invalid queries.
	ErrBadQuery = errors.New("sql: invalid query")
)

// planSelect turns a SELECT AST into an operator tree:
//
//	scan/index-scan -> joins -> filter -> aggregate -> having
//	   -> (sort) -> project -> distinct -> (sort) -> limit
//
// The sort runs before projection when its expressions resolve against
// the input schema, after it otherwise (so aliases are orderable).
func (e *Engine) planSelect(ctx context.Context, s *Select) (exec.Operator, error) {
	if len(s.Items) == 0 {
		return nil, fmt.Errorf("%w: empty select list", ErrBadQuery)
	}
	var op exec.Operator
	if len(s.From) == 0 {
		// SELECT without FROM: one synthetic row.
		op = &exec.Values{Cols: []string{}, Rows: []access.Row{{}}}
	} else {
		var err error
		op, err = e.planFrom(ctx, s)
		if err != nil {
			return nil, err
		}
	}
	if s.Where != nil {
		op = &exec.Filter{In: op, Pred: s.Where}
	}

	aggSpecs, rewrittenItems, rewrittenHaving, hasAggs, err := extractAggregates(s)
	if err != nil {
		return nil, err
	}
	if hasAggs || len(s.GroupBy) > 0 {
		groupAs := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			groupAs[i] = groupColName(g)
		}
		op = &exec.HashAggregate{In: op, GroupBy: s.GroupBy, GroupAs: groupAs, Aggs: aggSpecs}
		if rewrittenHaving != nil {
			op = &exec.Filter{In: op, Pred: rewrittenHaving}
		}
		// Select items textually matching a GROUP BY expression become
		// references to the aggregate's group column (so expression
		// groups like `age / 10` are projectable).
		for i := range rewrittenItems {
			if rewrittenItems[i].Star || rewrittenItems[i].Expr == nil {
				continue
			}
			rewrittenItems[i].Expr = rewriteGroupRefs(rewrittenItems[i].Expr, s.GroupBy, groupAs)
		}
	} else if s.Having != nil {
		return nil, fmt.Errorf("%w: HAVING without aggregation", ErrBadQuery)
	}

	// Projection.
	exprs, aliases, err := projection(op.Columns(), rewrittenItems)
	if err != nil {
		return nil, err
	}

	// Decide sort placement.
	preSort := len(s.OrderBy) > 0 && orderResolves(s.OrderBy, op.Columns())
	if preSort {
		op = &exec.Sort{In: op, Keys: orderKeys(s.OrderBy)}
	}
	op = &exec.Project{In: op, Exprs: exprs, Aliases: aliases}
	if s.Distinct {
		op = &exec.Distinct{In: op}
	}
	if len(s.OrderBy) > 0 && !preSort {
		if !orderResolves(s.OrderBy, op.Columns()) {
			return nil, fmt.Errorf("%w: ORDER BY references unknown columns", ErrBadQuery)
		}
		op = &exec.Sort{In: op, Keys: orderKeys(s.OrderBy)}
	}
	if s.Limit >= 0 || s.Offset > 0 {
		n := s.Limit
		if n < 0 {
			n = -1
		}
		op = &exec.Limit{In: op, N: n, Offset: s.Offset}
	}
	return op, nil
}

func orderKeys(items []OrderItem) []exec.SortKey {
	keys := make([]exec.SortKey, len(items))
	for i, o := range items {
		keys[i] = exec.SortKey{E: o.Expr, Desc: o.Desc}
	}
	return keys
}

// orderResolves reports whether every column referenced by the order
// expressions exists in cols.
func orderResolves(items []OrderItem, cols []string) bool {
	for _, o := range items {
		if !exprResolves(o.Expr, cols) {
			return false
		}
	}
	return true
}

func exprResolves(ex exec.Expr, cols []string) bool {
	switch t := ex.(type) {
	case exec.Col:
		_, err := exec.ColumnIndex(cols, t.Name)
		return err == nil
	case exec.Lit:
		return true
	case exec.Cmp:
		return exprResolves(t.L, cols) && exprResolves(t.R, cols)
	case exec.Logic:
		return exprResolves(t.L, cols) && exprResolves(t.R, cols)
	case exec.Not:
		return exprResolves(t.E, cols)
	case exec.IsNull:
		return exprResolves(t.E, cols)
	case exec.Arith:
		return exprResolves(t.L, cols) && exprResolves(t.R, cols)
	case AggCall:
		return false
	default:
		return false
	}
}

// rewriteGroupRefs replaces sub-expressions that textually match a
// GROUP BY expression with a reference to the corresponding aggregate
// output column.
func rewriteGroupRefs(ex exec.Expr, groups []exec.Expr, groupAs []string) exec.Expr {
	for i, g := range groups {
		if ex.String() == g.String() {
			return exec.Col{Name: groupAs[i]}
		}
	}
	switch t := ex.(type) {
	case exec.Cmp:
		return exec.Cmp{Op: t.Op, L: rewriteGroupRefs(t.L, groups, groupAs), R: rewriteGroupRefs(t.R, groups, groupAs)}
	case exec.Logic:
		return exec.Logic{Op: t.Op, L: rewriteGroupRefs(t.L, groups, groupAs), R: rewriteGroupRefs(t.R, groups, groupAs)}
	case exec.Not:
		return exec.Not{E: rewriteGroupRefs(t.E, groups, groupAs)}
	case exec.IsNull:
		return exec.IsNull{E: rewriteGroupRefs(t.E, groups, groupAs), Neg: t.Neg}
	case exec.Arith:
		return exec.Arith{Op: t.Op, L: rewriteGroupRefs(t.L, groups, groupAs), R: rewriteGroupRefs(t.R, groups, groupAs)}
	default:
		return ex
	}
}

// groupColName labels a GROUP BY expression in the aggregate output.
func groupColName(g exec.Expr) string {
	if c, ok := g.(exec.Col); ok {
		return c.Name
	}
	return g.String()
}

// extractAggregates walks the select items and HAVING clause, replacing
// AggCall nodes with column references into the aggregate output and
// collecting the aggregate specs.
func extractAggregates(s *Select) ([]exec.AggSpec, []SelectItem, exec.Expr, bool, error) {
	var specs []exec.AggSpec
	found := false
	name := func(a AggCall) string {
		for i, sp := range specs {
			if sp.As != "" && specsEqual(sp, a) {
				return specs[i].As
			}
		}
		n := fmt.Sprintf("agg%d:%s", len(specs), a.String())
		specs = append(specs, exec.AggSpec{Func: a.Func, Arg: a.Arg, As: n})
		return n
	}
	var rewrite func(ex exec.Expr) exec.Expr
	rewrite = func(ex exec.Expr) exec.Expr {
		switch t := ex.(type) {
		case AggCall:
			found = true
			return exec.Col{Name: name(t)}
		case exec.Cmp:
			return exec.Cmp{Op: t.Op, L: rewrite(t.L), R: rewrite(t.R)}
		case exec.Logic:
			return exec.Logic{Op: t.Op, L: rewrite(t.L), R: rewrite(t.R)}
		case exec.Not:
			return exec.Not{E: rewrite(t.E)}
		case exec.IsNull:
			return exec.IsNull{E: rewrite(t.E), Neg: t.Neg}
		case exec.Arith:
			return exec.Arith{Op: t.Op, L: rewrite(t.L), R: rewrite(t.R)}
		default:
			return ex
		}
	}
	items := make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		items[i] = it
		if !it.Star && it.Expr != nil {
			items[i].Expr = rewrite(it.Expr)
		}
	}
	var having exec.Expr
	if s.Having != nil {
		having = rewrite(s.Having)
	}
	return specs, items, having, found, nil
}

func specsEqual(sp exec.AggSpec, a AggCall) bool {
	if sp.Func != a.Func {
		return false
	}
	if sp.Arg == nil || a.Arg == nil {
		return sp.Arg == nil && a.Arg == nil
	}
	return sp.Arg.String() == a.Arg.String()
}

// projection expands stars and assigns output aliases.
func projection(inCols []string, items []SelectItem) ([]exec.Expr, []string, error) {
	var exprs []exec.Expr
	var aliases []string
	for _, it := range items {
		if it.Star {
			for _, c := range inCols {
				exprs = append(exprs, exec.Col{Name: c})
				aliases = append(aliases, bareName(c))
			}
			continue
		}
		alias := it.Alias
		if alias == "" {
			if c, ok := it.Expr.(exec.Col); ok {
				alias = bareName(c.Name)
			} else {
				alias = it.Expr.String()
			}
		}
		exprs = append(exprs, it.Expr)
		aliases = append(aliases, alias)
	}
	return exprs, aliases, nil
}

func bareName(col string) string {
	if dot := strings.LastIndexByte(col, '.'); dot >= 0 {
		return col[dot+1:]
	}
	return col
}

// planFrom builds the base scan/join tree.
func (e *Engine) planFrom(ctx context.Context, s *Select) (exec.Operator, error) {
	left, err := e.planTableRef(ctx, s, s.From[0], true)
	if err != nil {
		return nil, err
	}
	for _, ref := range s.From[1:] {
		right, err := e.planTableRef(ctx, s, ref, false)
		if err != nil {
			return nil, err
		}
		left, err = planJoin(left, right, ref.JoinOn)
		if err != nil {
			return nil, err
		}
	}
	return left, nil
}

// planJoin picks hash join for simple column equi-joins and nested
// loops otherwise.
func planJoin(left, right exec.Operator, on exec.Expr) (exec.Operator, error) {
	if on == nil {
		return &exec.NestedLoopJoin{L: left, R: right}, nil
	}
	if cmp, ok := on.(exec.Cmp); ok && cmp.Op == exec.OpEq {
		lc, lok := cmp.L.(exec.Col)
		rc, rok := cmp.R.(exec.Col)
		if lok && rok {
			_, lInLeft := indexErrNil(left.Columns(), lc.Name)
			_, rInRight := indexErrNil(right.Columns(), rc.Name)
			if lInLeft && rInRight {
				return &exec.HashJoin{L: left, R: right, LKey: lc, RKey: rc}, nil
			}
			_, lInRight := indexErrNil(right.Columns(), lc.Name)
			_, rInLeft := indexErrNil(left.Columns(), rc.Name)
			if lInRight && rInLeft {
				return &exec.HashJoin{L: left, R: right, LKey: rc, RKey: lc}, nil
			}
		}
	}
	return &exec.NestedLoopJoin{L: left, R: right, Pred: on}, nil
}

func indexErrNil(cols []string, name string) (int, bool) {
	i, err := exec.ColumnIndex(cols, name)
	return i, err == nil
}

// planTableRef builds a scan for one FROM entry: view expansion, or the
// table's access path (an index scan is considered only when the query
// reads a single table, so every WHERE conjunct is about it).
func (e *Engine) planTableRef(ctx context.Context, s *Select, ref TableRef, first bool) (exec.Operator, error) {
	if v, err := e.cat.GetView(ref.Table); err == nil {
		sub, err := Parse(v.Query)
		if err != nil {
			return nil, fmt.Errorf("sql: view %s: %w", v.Name, err)
		}
		sel, ok := sub.(*Select)
		if !ok {
			return nil, fmt.Errorf("%w: view %s is not a SELECT", ErrBadQuery, v.Name)
		}
		op, err := e.planSelect(ctx, sel)
		if err != nil {
			return nil, err
		}
		// Re-qualify output columns under the view (or alias) name.
		name := ref.Alias
		if name == "" {
			name = v.Name
		}
		cols := op.Columns()
		exprs := make([]exec.Expr, len(cols))
		aliases := make([]string, len(cols))
		for i, c := range cols {
			exprs[i] = exec.Col{Name: c}
			aliases[i] = name + "." + bareName(c)
		}
		return &exec.Project{In: op, Exprs: exprs, Aliases: aliases}, nil
	}

	tbl, err := e.cat.GetTable(ref.Table)
	if err != nil {
		return nil, err
	}
	h, err := e.heap(tbl)
	if err != nil {
		return nil, err
	}
	var where exec.Expr
	if first && len(s.From) == 1 {
		where = s.Where
	}
	return e.accessPath(tbl, h, ref.Alias, where)
}

// rowAccess is a base-table scan that can also hand over each row's
// RID, which UPDATE and DELETE need to write the row back.
type rowAccess interface {
	exec.Operator
	Each(ctx context.Context, fn func(rid access.RID, row access.Row) error) error
}

// accessPath is the one rule by which SELECT, UPDATE and DELETE reach
// the rows of a single table: the index range of the first AND-connected
// `indexed column CMP literal` conjunct of where, else the heap scan.
// The range over-approximates its conjunct, so every caller still
// applies the full where to each row.
func (e *Engine) accessPath(tbl *catalog.Table, h exec.RowSource, alias string, where exec.Expr) (rowAccess, error) {
	cmp, ok := findIndexableCmp(where, tbl)
	if !ok {
		return exec.NewSeqScan(tbl, h, alias), nil
	}
	tree, err := e.tree(cmp.def)
	if err != nil {
		return nil, err
	}
	scan := &exec.IndexScan{Table: tbl, Source: h, Tree: tree, Alias: alias}
	switch cmp.op {
	case exec.OpEq:
		scan.Lo, scan.Hi = &cmp.val, &cmp.val
	case exec.OpLt, exec.OpLe:
		scan.Hi = &cmp.val
	default: // OpGt, OpGe
		scan.Lo = &cmp.val
	}
	return scan, nil
}

type indexableCmp struct {
	def catalog.IndexDef
	op  exec.CmpOp
	val access.Value // of the indexed column's type
}

// findIndexableCmp extracts the first top-level (AND-connected)
// comparison =, <, <=, > or >= between an indexed column and a literal.
func findIndexableCmp(where exec.Expr, tbl *catalog.Table) (indexableCmp, bool) {
	switch t := where.(type) {
	case exec.Cmp:
		if c, ok := indexableSide(t.L, t.R, t.Op, tbl); ok {
			return c, true
		}
		return indexableSide(t.R, t.L, flipCmp(t.Op), tbl)
	case exec.Logic:
		if t.Op == exec.OpAnd {
			if c, ok := findIndexableCmp(t.L, tbl); ok {
				return c, true
			}
			return findIndexableCmp(t.R, tbl)
		}
	}
	return indexableCmp{}, false
}

// indexableSide reports `col op lit` as an index range when col is
// indexed. An index holds keys of its column's type only (int and float
// keys do not interleave), so the literal is coerced to that type; one
// the type cannot hold exactly, like 1.5 for an INT column, plans no
// range.
func indexableSide(col, lit exec.Expr, op exec.CmpOp, tbl *catalog.Table) (indexableCmp, bool) {
	c, isCol := col.(exec.Col)
	l, isLit := lit.(exec.Lit)
	if !isCol || !isLit {
		return indexableCmp{}, false
	}
	switch op {
	case exec.OpEq, exec.OpLt, exec.OpLe, exec.OpGt, exec.OpGe:
	default:
		return indexableCmp{}, false
	}
	name := bareName(c.Name)
	def, ok := tbl.Index(name)
	if !ok {
		return indexableCmp{}, false
	}
	ci, err := tbl.ColumnIndex(name)
	if err != nil {
		return indexableCmp{}, false
	}
	v, err := coerce(l.V, tbl.Columns[ci].Type)
	if err != nil {
		return indexableCmp{}, false
	}
	return indexableCmp{def: def, op: op, val: v}, true
}

func flipCmp(op exec.CmpOp) exec.CmpOp {
	switch op {
	case exec.OpLt:
		return exec.OpGt
	case exec.OpLe:
		return exec.OpGe
	case exec.OpGt:
		return exec.OpLt
	case exec.OpGe:
		return exec.OpLe
	default:
		return op
	}
}
