// Package exec implements the record-set operations of the SBDMS Access
// layer ("higher level operations, such as joins, selections, and
// sorting of record sets", Section 3.1): a Volcano-style iterator
// operator model with scans, filters, projections, sorts, three join
// algorithms, aggregation, and an expression evaluator with SQL
// three-valued logic.
package exec

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/access"
)

// Expression errors.
var (
	// ErrUnknownColumn is returned when an expression references a
	// column absent from the input schema.
	ErrUnknownColumn = errors.New("exec: unknown column")
	// ErrBadExpr is returned for invalid expression evaluation.
	ErrBadExpr = errors.New("exec: invalid expression")
)

// Expr is an evaluable scalar expression over a row. Columns resolve by
// name against the operator's output schema; qualified names ("t.col")
// match either the qualified or the bare form.
type Expr interface {
	Eval(row access.Row, cols []string) (access.Value, error)
	String() string
}

// ColumnIndex resolves a (possibly qualified) column name in a schema.
func ColumnIndex(cols []string, name string) (int, error) {
	// Exact (case-insensitive) match first.
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i, nil
		}
	}
	// Bare name matching the suffix of a qualified column, or vice
	// versa; ambiguity is an error.
	found := -1
	for i, c := range cols {
		cBare := c
		if dot := strings.LastIndexByte(c, '.'); dot >= 0 {
			cBare = c[dot+1:]
		}
		nBare := name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			nBare = name[dot+1:]
		}
		if strings.EqualFold(cBare, name) || strings.EqualFold(c, nBare) && strings.Contains(name, ".") {
			if found >= 0 {
				return -1, fmt.Errorf("%w: %s is ambiguous", ErrUnknownColumn, name)
			}
			found = i
		}
	}
	if found >= 0 {
		return found, nil
	}
	return -1, fmt.Errorf("%w: %s (have %v)", ErrUnknownColumn, name, cols)
}

// Col references a column by name.
type Col struct{ Name string }

// Eval implements Expr.
func (c Col) Eval(row access.Row, cols []string) (access.Value, error) {
	i, err := ColumnIndex(cols, c.Name)
	if err != nil {
		return access.Null(), err
	}
	if i >= len(row) {
		return access.Null(), fmt.Errorf("%w: column %d beyond row", ErrBadExpr, i)
	}
	return row[i], nil
}

// String implements Expr.
func (c Col) String() string { return c.Name }

// boundCol is a Col resolved by Bind to its ordinal in one schema.
type boundCol struct {
	name string
	i    int
}

// Eval implements Expr. It ignores cols: row must have the schema Bind
// resolved against.
func (c boundCol) Eval(row access.Row, _ []string) (access.Value, error) {
	if c.i >= len(row) {
		return access.Null(), fmt.Errorf("%w: column %d beyond row", ErrBadExpr, c.i)
	}
	return row[c.i], nil
}

// String implements Expr.
func (c boundCol) String() string { return c.name }

// Bind resolves every column reference in e against cols once, so an
// operator evaluating e per row indexes the row instead of matching
// names. The result is only valid over rows of that schema; a nil e
// stays nil. A column absent from cols fails with ErrUnknownColumn.
func Bind(e Expr, cols []string) (Expr, error) {
	var err error
	switch t := e.(type) {
	case Col:
		var i int
		if i, err = ColumnIndex(cols, t.Name); err != nil {
			return nil, err
		}
		return boundCol{name: t.Name, i: i}, nil
	case Cmp:
		t.L, t.R, err = bindPair(t.L, t.R, cols)
		return t, err
	case Logic:
		t.L, t.R, err = bindPair(t.L, t.R, cols)
		return t, err
	case Arith:
		t.L, t.R, err = bindPair(t.L, t.R, cols)
		return t, err
	case Not:
		t.E, err = Bind(t.E, cols)
		return t, err
	case IsNull:
		t.E, err = Bind(t.E, cols)
		return t, err
	}
	return e, nil
}

func bindPair(l, r Expr, cols []string) (Expr, Expr, error) {
	l, err := Bind(l, cols)
	if err != nil {
		return nil, nil, err
	}
	r, err = Bind(r, cols)
	return l, r, err
}

// Lit is a literal value.
type Lit struct{ V access.Value }

// Eval implements Expr.
func (l Lit) Eval(access.Row, []string) (access.Value, error) { return l.V, nil }

// String implements Expr.
func (l Lit) String() string { return l.V.String() }

// CmpOp is a comparison operator.
type CmpOp string

// Comparison operators.
const (
	OpEq CmpOp = "="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Cmp compares two sub-expressions. Comparison with NULL yields NULL
// (represented as a NULL value, falsy in filters).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(row access.Row, cols []string) (access.Value, error) {
	lv, err := c.L.Eval(row, cols)
	if err != nil {
		return access.Null(), err
	}
	rv, err := c.R.Eval(row, cols)
	if err != nil {
		return access.Null(), err
	}
	if lv.IsNull() || rv.IsNull() {
		return access.Null(), nil
	}
	n, err := access.Compare(lv, rv)
	if err != nil {
		return access.Null(), err
	}
	var out bool
	switch c.Op {
	case OpEq:
		out = n == 0
	case OpNe:
		out = n != 0
	case OpLt:
		out = n < 0
	case OpLe:
		out = n <= 0
	case OpGt:
		out = n > 0
	case OpGe:
		out = n >= 0
	default:
		return access.Null(), fmt.Errorf("%w: comparator %q", ErrBadExpr, c.Op)
	}
	return access.NewBool(out), nil
}

// String implements Expr.
func (c Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// LogicOp is a boolean connective.
type LogicOp string

// Logic connectives.
const (
	OpAnd LogicOp = "AND"
	OpOr  LogicOp = "OR"
)

// Logic combines two boolean sub-expressions with three-valued logic.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// Eval implements Expr.
func (l Logic) Eval(row access.Row, cols []string) (access.Value, error) {
	lv, err := l.L.Eval(row, cols)
	if err != nil {
		return access.Null(), err
	}
	rv, err := l.R.Eval(row, cols)
	if err != nil {
		return access.Null(), err
	}
	lb, lnull := asBool(lv)
	rb, rnull := asBool(rv)
	switch l.Op {
	case OpAnd:
		if !lnull && !lb || !rnull && !rb {
			return access.NewBool(false), nil
		}
		if lnull || rnull {
			return access.Null(), nil
		}
		return access.NewBool(true), nil
	case OpOr:
		if !lnull && lb || !rnull && rb {
			return access.NewBool(true), nil
		}
		if lnull || rnull {
			return access.Null(), nil
		}
		return access.NewBool(false), nil
	}
	return access.Null(), fmt.Errorf("%w: connective %q", ErrBadExpr, l.Op)
}

// String implements Expr.
func (l Logic) String() string { return fmt.Sprintf("(%s %s %s)", l.L, l.Op, l.R) }

func asBool(v access.Value) (val bool, isNull bool) {
	if v.IsNull() {
		return false, true
	}
	return v.Type == access.TypeBool && v.Bool, false
}

// Not negates a boolean sub-expression (NULL stays NULL).
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(row access.Row, cols []string) (access.Value, error) {
	v, err := n.E.Eval(row, cols)
	if err != nil {
		return access.Null(), err
	}
	if v.IsNull() {
		return access.Null(), nil
	}
	b, _ := asBool(v)
	return access.NewBool(!b), nil
}

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// IsNull tests for NULL (or NOT NULL when Neg).
type IsNull struct {
	E   Expr
	Neg bool
}

// Eval implements Expr.
func (i IsNull) Eval(row access.Row, cols []string) (access.Value, error) {
	v, err := i.E.Eval(row, cols)
	if err != nil {
		return access.Null(), err
	}
	return access.NewBool(v.IsNull() != i.Neg), nil
}

// String implements Expr.
func (i IsNull) String() string {
	if i.Neg {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// ArithOp is an arithmetic operator.
type ArithOp string

// Arithmetic operators.
const (
	OpAdd ArithOp = "+"
	OpSub ArithOp = "-"
	OpMul ArithOp = "*"
	OpDiv ArithOp = "/"
	OpMod ArithOp = "%"
)

// Arith computes arithmetic over numeric values; + concatenates
// strings. NULL operands yield NULL.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a Arith) Eval(row access.Row, cols []string) (access.Value, error) {
	lv, err := a.L.Eval(row, cols)
	if err != nil {
		return access.Null(), err
	}
	rv, err := a.R.Eval(row, cols)
	if err != nil {
		return access.Null(), err
	}
	if lv.IsNull() || rv.IsNull() {
		return access.Null(), nil
	}
	if a.Op == OpAdd && lv.Type == access.TypeString && rv.Type == access.TypeString {
		return access.NewString(lv.Str + rv.Str), nil
	}
	// Integer arithmetic when both are ints; float otherwise.
	if lv.Type == access.TypeInt && rv.Type == access.TypeInt {
		switch a.Op {
		case OpAdd:
			return access.NewInt(lv.Int + rv.Int), nil
		case OpSub:
			return access.NewInt(lv.Int - rv.Int), nil
		case OpMul:
			return access.NewInt(lv.Int * rv.Int), nil
		case OpDiv:
			if rv.Int == 0 {
				return access.Null(), fmt.Errorf("%w: division by zero", ErrBadExpr)
			}
			return access.NewInt(lv.Int / rv.Int), nil
		case OpMod:
			if rv.Int == 0 {
				return access.Null(), fmt.Errorf("%w: modulo by zero", ErrBadExpr)
			}
			return access.NewInt(lv.Int % rv.Int), nil
		}
	}
	lf, lok := lv.AsFloat()
	rf, rok := rv.AsFloat()
	if !lok || !rok {
		return access.Null(), fmt.Errorf("%w: %s %s %s", ErrBadExpr, lv.Type, a.Op, rv.Type)
	}
	switch a.Op {
	case OpAdd:
		return access.NewFloat(lf + rf), nil
	case OpSub:
		return access.NewFloat(lf - rf), nil
	case OpMul:
		return access.NewFloat(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return access.Null(), fmt.Errorf("%w: division by zero", ErrBadExpr)
		}
		return access.NewFloat(lf / rf), nil
	}
	return access.Null(), fmt.Errorf("%w: operator %q", ErrBadExpr, a.Op)
}

// String implements Expr.
func (a Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// Truthy evaluates an expression as a filter predicate: true only for a
// non-NULL true boolean.
func Truthy(e Expr, row access.Row, cols []string) (bool, error) {
	v, err := e.Eval(row, cols)
	if err != nil {
		return false, err
	}
	b, isNull := asBool(v)
	return b && !isNull, nil
}
