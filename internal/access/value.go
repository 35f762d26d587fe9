// Package access implements the Access Services layer of the SBDMS
// architecture (Section 3.1): physical record representation (typed
// values and row encoding), slotted pages, heap files with WAL-logged
// mutations, and record identifiers. Higher-level operations over
// record sets (joins, selections, sorting) live in internal/exec.
package access

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value errors.
var (
	// ErrTypeMismatch is returned when values of incomparable types
	// meet.
	ErrTypeMismatch = errors.New("access: type mismatch")
	// ErrCorruptRow is returned when a row fails to decode.
	ErrCorruptRow = errors.New("access: corrupt row encoding")
)

// Type enumerates the value types of the data model.
type Type uint8

// Value types.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBool
	TypeBytes
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "STRING"
	case TypeBool:
		return "BOOL"
	case TypeBytes:
		return "BYTES"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ParseType parses a SQL-ish type name.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INT", "INTEGER", "BIGINT":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return TypeFloat, nil
	case "STRING", "TEXT", "VARCHAR":
		return TypeString, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	case "BYTES", "BLOB":
		return TypeBytes, nil
	default:
		return TypeNull, fmt.Errorf("access: unknown type %q", s)
	}
}

// Value is a single typed datum. The zero Value is NULL.
type Value struct {
	Type  Type
	Int   int64
	Float float64
	Str   string
	Bool  bool
	Bytes []byte
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt wraps an int64.
func NewInt(v int64) Value { return Value{Type: TypeInt, Int: v} }

// NewFloat wraps a float64.
func NewFloat(v float64) Value { return Value{Type: TypeFloat, Float: v} }

// NewString wraps a string.
func NewString(v string) Value { return Value{Type: TypeString, Str: v} }

// NewBool wraps a bool.
func NewBool(v bool) Value { return Value{Type: TypeBool, Bool: v} }

// NewBytes wraps a byte slice.
func NewBytes(v []byte) Value { return Value{Type: TypeBytes, Bytes: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Type == TypeNull }

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.Int, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case TypeString:
		return v.Str
	case TypeBool:
		return strconv.FormatBool(v.Bool)
	case TypeBytes:
		return fmt.Sprintf("0x%x", v.Bytes)
	default:
		return "?"
	}
}

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Type {
	case TypeInt:
		return float64(v.Int), true
	case TypeFloat:
		return v.Float, true
	default:
		return 0, false
	}
}

// Compare orders two values: -1, 0, +1. NULL sorts before everything;
// int and float compare numerically across types, exactly: two INTs as
// integers, an INT and a FLOAT without rounding the INT to a float. NaN
// equals NaN and sorts below every other number, and -0 equals 0, as in
// cmp.Compare.
// Incomparable types return ErrTypeMismatch.
func Compare(a, b Value) (int, error) {
	if a.Type == TypeNull || b.Type == TypeNull {
		switch {
		case a.Type == TypeNull && b.Type == TypeNull:
			return 0, nil
		case a.Type == TypeNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	switch {
	case a.Type == TypeInt && b.Type == TypeInt:
		return cmp.Compare(a.Int, b.Int), nil
	case a.Type == TypeInt && b.Type == TypeFloat:
		return compareIntFloat(a.Int, b.Float), nil
	case a.Type == TypeFloat && b.Type == TypeInt:
		return -compareIntFloat(b.Int, a.Float), nil
	case a.Type == TypeFloat && b.Type == TypeFloat:
		return cmp.Compare(a.Float, b.Float), nil
	}
	if a.Type != b.Type {
		return 0, fmt.Errorf("%w: %s vs %s", ErrTypeMismatch, a.Type, b.Type)
	}
	switch a.Type {
	case TypeString:
		return strings.Compare(a.Str, b.Str), nil
	case TypeBool:
		switch {
		case a.Bool == b.Bool:
			return 0, nil
		case !a.Bool:
			return -1, nil
		default:
			return 1, nil
		}
	case TypeBytes:
		return bytes.Compare(a.Bytes, b.Bytes), nil
	}
	return 0, fmt.Errorf("%w: %s", ErrTypeMismatch, a.Type)
}

// compareIntFloat orders an INT against a FLOAT exactly: NaN and a
// float outside the int64 range lie beyond every int, and one inside it
// is compared by its integer part first, then by its fraction.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f >= 1<<63:
		return -1
	case math.IsNaN(f) || f < -(1<<63):
		return 1
	}
	whole := math.Trunc(f)
	if c := cmp.Compare(i, int64(whole)); c != 0 {
		return c
	}
	return cmp.Compare(whole, f)
}

// Equal reports deep equality (NULL equals NULL here; SQL three-valued
// logic is handled by the expression evaluator).
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Row is an ordered tuple of values.
type Row []Value

// Clone returns an independent copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	for i, v := range r {
		if v.Type == TypeBytes {
			out[i].Bytes = append([]byte(nil), v.Bytes...)
		}
	}
	return out
}

// String renders the row for display.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// EncodeRow serialises a row into a self-describing byte string:
// u16 column count, then per value a type byte and payload.
func EncodeRow(r Row) []byte {
	var out []byte
	var tmp [8]byte
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(r)))
	out = append(out, tmp[:2]...)
	for _, v := range r {
		out = append(out, byte(v.Type))
		switch v.Type {
		case TypeNull:
		case TypeInt:
			binary.LittleEndian.PutUint64(tmp[:], uint64(v.Int))
			out = append(out, tmp[:]...)
		case TypeFloat:
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.Float))
			out = append(out, tmp[:]...)
		case TypeBool:
			if v.Bool {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		case TypeString:
			binary.LittleEndian.PutUint32(tmp[:4], uint32(len(v.Str)))
			out = append(out, tmp[:4]...)
			out = append(out, v.Str...)
		case TypeBytes:
			binary.LittleEndian.PutUint32(tmp[:4], uint32(len(v.Bytes)))
			out = append(out, tmp[:4]...)
			out = append(out, v.Bytes...)
		}
	}
	return out
}

// DecodeRow parses a row encoded with EncodeRow.
func DecodeRow(b []byte) (Row, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: too short", ErrCorruptRow)
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	row := make(Row, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("%w: truncated value %d", ErrCorruptRow, i)
		}
		t := Type(b[0])
		b = b[1:]
		var v Value
		switch t {
		case TypeNull:
			v = Null()
		case TypeInt:
			if len(b) < 8 {
				return nil, fmt.Errorf("%w: truncated int", ErrCorruptRow)
			}
			v = NewInt(int64(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		case TypeFloat:
			if len(b) < 8 {
				return nil, fmt.Errorf("%w: truncated float", ErrCorruptRow)
			}
			v = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		case TypeBool:
			if len(b) < 1 {
				return nil, fmt.Errorf("%w: truncated bool", ErrCorruptRow)
			}
			v = NewBool(b[0] == 1)
			b = b[1:]
		case TypeString:
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: truncated string header", ErrCorruptRow)
			}
			slen := int(binary.LittleEndian.Uint32(b))
			b = b[4:]
			if len(b) < slen {
				return nil, fmt.Errorf("%w: truncated string body", ErrCorruptRow)
			}
			v = NewString(string(b[:slen]))
			b = b[slen:]
		case TypeBytes:
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: truncated bytes header", ErrCorruptRow)
			}
			blen := int(binary.LittleEndian.Uint32(b))
			b = b[4:]
			if len(b) < blen {
				return nil, fmt.Errorf("%w: truncated bytes body", ErrCorruptRow)
			}
			v = NewBytes(append([]byte(nil), b[:blen]...))
			b = b[blen:]
		default:
			return nil, fmt.Errorf("%w: unknown type %d", ErrCorruptRow, t)
		}
		row = append(row, v)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptRow, len(b))
	}
	return row, nil
}

// EncodeKey produces an order-preserving byte encoding of a value for
// index keys: Compare(a,b) agrees with bytes.Compare(EncodeKey(a),
// EncodeKey(b)) for values of the same comparison class.
func EncodeKey(v Value) []byte {
	switch v.Type {
	case TypeNull:
		return []byte{0x00}
	case TypeInt:
		var out [9]byte
		out[0] = 0x01
		binary.BigEndian.PutUint64(out[1:], uint64(v.Int)^(1<<63))
		return out[:]
	case TypeFloat:
		// Index columns have a fixed type, so int and float keys never
		// mix within one index; each class just needs internal order.
		// -0 encodes as 0 and every NaN below -Inf, as Compare orders them.
		var out [9]byte
		out[0] = 0x01
		f := v.Float
		if f == 0 {
			f = 0
		}
		bits := math.Float64bits(f)
		switch {
		case math.IsNaN(f):
			bits = 0
		case f >= 0:
			bits ^= 1 << 63
		default:
			bits = ^bits
		}
		binary.BigEndian.PutUint64(out[1:], bits)
		return out[:]
	case TypeBool:
		if v.Bool {
			return []byte{0x02, 1}
		}
		return []byte{0x02, 0}
	case TypeString:
		return append([]byte{0x03}, v.Str...)
	case TypeBytes:
		return append([]byte{0x04}, v.Bytes...)
	default:
		return []byte{0xFF}
	}
}
