package access

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		typ  Type
		repr string
	}{
		{Null(), TypeNull, "NULL"},
		{NewInt(-42), TypeInt, "-42"},
		{NewFloat(2.5), TypeFloat, "2.5"},
		{NewString("hi"), TypeString, "hi"},
		{NewBool(true), TypeBool, "true"},
		{NewBytes([]byte{0xAB}), TypeBytes, "0xab"},
	}
	for _, c := range cases {
		if c.v.Type != c.typ || c.v.String() != c.repr {
			t.Errorf("%+v: type %v repr %q", c.v, c.v.Type, c.v.String())
		}
	}
	if !Null().IsNull() || NewInt(0).IsNull() {
		t.Fatal("IsNull broken")
	}
}

func TestParseType(t *testing.T) {
	for s, want := range map[string]Type{
		"int": TypeInt, "INTEGER": TypeInt, "bigint": TypeInt,
		"float": TypeFloat, "DOUBLE": TypeFloat, "real": TypeFloat,
		"text": TypeString, "VARCHAR": TypeString, "string": TypeString,
		"bool": TypeBool, "BOOLEAN": TypeBool,
		"bytes": TypeBytes, "blob": TypeBytes,
	} {
		got, err := ParseType(s)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseType("decimal"); err == nil {
		t.Fatal("unknown type must fail")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{NewBytes([]byte{1}), NewBytes([]byte{1, 0}), -1},
		{Null(), NewInt(5), -1},
		{NewInt(5), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Compare(NewInt(1), NewString("x")); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Compare(NewBool(true), NewBytes(nil)); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
	if !Equal(NewInt(3), NewFloat(3)) || Equal(NewInt(3), NewInt(4)) {
		t.Fatal("Equal broken")
	}
}

func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	row := Row{
		NewInt(-7), NewFloat(math.Pi), NewString("héllo"), NewBool(true),
		NewBytes([]byte{0, 1, 2}), Null(),
	}
	got, err := DecodeRow(EncodeRow(row))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(row) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range row {
		if !Equal(got[i], row[i]) && !(row[i].IsNull() && got[i].IsNull()) {
			t.Errorf("col %d: %v != %v", i, got[i], row[i])
		}
	}
	// Empty row.
	if got, err := DecodeRow(EncodeRow(Row{})); err != nil || len(got) != 0 {
		t.Fatalf("empty row: %v, %v", got, err)
	}
}

func TestDecodeRowErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},                                     // short header
		{1, 0},                                  // one column, no data
		{1, 0, 99},                              // unknown type
		{1, 0, byte(TypeInt), 1, 2},             // truncated int
		append(EncodeRow(Row{NewInt(1)}), 0xFF), // trailing bytes
	}
	for i, b := range cases {
		if _, err := DecodeRow(b); !errors.Is(err, ErrCorruptRow) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewBytes([]byte{1, 2}), NewString("s")}
	c := r.Clone()
	c[0].Bytes[0] = 9
	if r[0].Bytes[0] == 9 {
		t.Fatal("clone must deep-copy bytes")
	}
	if r.String() != "(0x0102, s)" {
		t.Fatalf("String = %q", r.String())
	}
}

// Property: row encoding round-trips arbitrary int/float/string/bool
// rows.
func TestRowRoundTripQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, raw []byte) bool {
		row := Row{NewInt(i), NewFloat(fl), NewString(s), NewBool(b), NewBytes(raw), Null()}
		got, err := DecodeRow(EncodeRow(row))
		if err != nil || len(got) != 6 {
			return false
		}
		if got[0].Int != i || got[2].Str != s || got[3].Bool != b || !got[5].IsNull() {
			return false
		}
		if !bytes.Equal(got[4].Bytes, raw) {
			return false
		}
		// NaN-safe float comparison.
		return math.Float64bits(got[1].Float) == math.Float64bits(fl)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey preserves the Compare order within each class.
func TestEncodeKeyOrderQuick(t *testing.T) {
	intCase := func(a, b int64) bool {
		c, _ := Compare(NewInt(a), NewInt(b))
		return c == bytes.Compare(EncodeKey(NewInt(a)), EncodeKey(NewInt(b)))
	}
	if err := quick.Check(intCase, nil); err != nil {
		t.Fatalf("int keys: %v", err)
	}
	floatCase := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c, _ := Compare(NewFloat(a), NewFloat(b))
		return c == bytes.Compare(EncodeKey(NewFloat(a)), EncodeKey(NewFloat(b)))
	}
	if err := quick.Check(floatCase, nil); err != nil {
		t.Fatalf("float keys: %v", err)
	}
	strCase := func(a, b string) bool {
		c, _ := Compare(NewString(a), NewString(b))
		return c == bytes.Compare(EncodeKey(NewString(a)), EncodeKey(NewString(b)))
	}
	if err := quick.Check(strCase, nil); err != nil {
		t.Fatalf("string keys: %v", err)
	}
}

func TestEncodeKeySortsMixedInts(t *testing.T) {
	vals := []int64{5, -3, 0, math.MaxInt64, math.MinInt64, 7, -7}
	keys := make([][]byte, len(vals))
	for i, v := range vals {
		keys[i] = EncodeKey(NewInt(v))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, v := range vals {
		if !bytes.Equal(keys[i], EncodeKey(NewInt(v))) {
			t.Fatalf("key order mismatch at %d (val %d)", i, v)
		}
	}
}

// TestCompareExactAbove2To53 pins the exact numeric order: INTs that
// the same float64 rounds to stay distinct, and an INT against a FLOAT
// compares without rounding the INT.
func TestCompareExactAbove2To53(t *testing.T) {
	const p = 1 << 53
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(p), NewInt(p + 1), -1},
		{NewInt(p + 1), NewFloat(p), 1},
		{NewFloat(p), NewInt(p + 1), -1},
		{NewInt(math.MaxInt64), NewFloat(1 << 63), -1},
		{NewInt(math.MinInt64), NewFloat(-(1 << 63)), 0},
		{NewInt(2), NewFloat(2.5), -1},
		{NewInt(-2), NewFloat(-2.5), 1},
		{NewInt(0), NewFloat(math.Copysign(0, -1)), 0},
		{NewInt(math.MinInt64), NewFloat(math.NaN()), 1},
		{NewFloat(math.Inf(-1)), NewFloat(math.NaN()), 1},
	}
	for _, c := range cases {
		if got, err := Compare(c.a, c.b); err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
}

// fuzzValue builds a value of one of the six types from fuzz inputs.
func fuzzValue(kind uint8, i int64, f float64, s string) Value {
	switch kind % 6 {
	case 0:
		return Null()
	case 1:
		return NewInt(i)
	case 2:
		return NewFloat(f)
	case 3:
		return NewString(s)
	case 4:
		return NewBool(i&1 == 1)
	default:
		return NewBytes([]byte(s))
	}
}

func sign(n int) int { return cmp.Compare(n, 0) }

// FuzzValueOrder checks that Compare is a total order on each class of
// mutually comparable values (antisymmetric, and transitive on triples)
// and that, for two values of one type, EncodeKey's byte order agrees
// with it.
func FuzzValueOrder(f *testing.F) {
	const p = 1 << 53
	f.Add(uint8(1), int64(p), 0.0, "", uint8(1), int64(p+1), 0.0, "", uint8(2), int64(0), float64(p), "")
	f.Add(uint8(2), int64(0), math.Copysign(0, -1), "", uint8(2), int64(0), 0.0, "", uint8(1), int64(0), 0.0, "")
	f.Add(uint8(2), int64(0), math.NaN(), "", uint8(2), int64(0), math.Inf(-1), "", uint8(1), int64(math.MinInt64), 0.0, "")
	f.Add(uint8(1), int64(math.MaxInt64), 0.0, "", uint8(2), int64(0), float64(1<<63), "", uint8(2), int64(0), math.Inf(1), "")
	f.Add(uint8(3), int64(0), 0.0, "a", uint8(3), int64(0), 0.0, "a\x00", uint8(5), int64(0), 0.0, "b")
	f.Add(uint8(4), int64(0), 0.0, "", uint8(4), int64(1), 0.0, "", uint8(0), int64(0), 0.0, "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string, kc uint8, ic int64, fc float64, sc string) {
		vals := []Value{fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb), fuzzValue(kc, ic, fc, sc)}
		order := func(x, y Value) (int, bool) {
			c, err := Compare(x, y)
			return sign(c), err == nil
		}
		for _, x := range vals {
			for _, y := range vals {
				xy, okxy := order(x, y)
				yx, okyx := order(y, x)
				if okxy != okyx || (okxy && xy != -yx) {
					t.Fatalf("Compare(%v, %v) = %d, %v but Compare(%v, %v) = %d, %v", x, y, xy, okxy, y, x, yx, okyx)
				}
				if okxy && x.Type == y.Type {
					if kc := sign(bytes.Compare(EncodeKey(x), EncodeKey(y))); kc != xy {
						t.Fatalf("Compare(%v, %v) = %d but their keys compare %d", x, y, xy, kc)
					}
				}
			}
		}
		a, b, c := vals[0], vals[1], vals[2]
		ab, ok1 := order(a, b)
		bc, ok2 := order(b, c)
		ac, ok3 := order(a, c)
		if ok1 && ok2 && ok3 && ab <= 0 && bc <= 0 && ac > 0 {
			t.Fatalf("not transitive: %v <= %v <= %v but %v > %v", a, b, c, a, c)
		}
		if ok1 && ok2 && ok3 && ab == 0 && bc == 0 && ac != 0 {
			t.Fatalf("equality not transitive: %v = %v = %v but Compare(%v, %v) = %d", a, b, c, a, c, ac)
		}
	})
}
