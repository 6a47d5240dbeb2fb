package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Null: "null", Int: "int", Float: "float", String: "string", Kind(9): "kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.K != Int || v.Int64() != 42 {
		t.Errorf("NewInt: %+v", v)
	}
	if v := NewFloat(2.5); v.K != Float || v.Float64() != 2.5 {
		t.Errorf("NewFloat: %+v", v)
	}
	if v := NewString("x"); v.K != String || v.Str() != "x" {
		t.Errorf("NewString: %+v", v)
	}
	if !NewNull().IsNull() {
		t.Error("NewNull not null")
	}
	if NewInt(7).AsFloat() != 7.0 {
		t.Error("AsFloat on int")
	}
	if NewFloat(7.9).AsInt() != 7 {
		t.Error("AsInt truncation")
	}
	if !math.IsNaN(NewString("a").AsFloat()) {
		t.Error("AsFloat on string should be NaN")
	}
	if NewString("a").AsInt() != 0 {
		t.Error("AsInt on string should be 0")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewNull(), "NULL"},
		{NewInt(-3), "-3"},
		{NewFloat(1.5), "1.5"},
		{NewString("Seattle"), "Seattle"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(5), NewInt(5), 0},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewNull(), NewInt(0), -1},
		{NewInt(0), NewNull(), 1},
		{NewNull(), NewNull(), 0},
		{NewInt(1), NewString("1"), -1}, // numeric kinds sort before strings
		{NewString("1"), NewInt(1), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestEqualAgreesWithCompare: Equal's by-id shortcut for two strings must
// answer what Compare does, for every pair of kinds and the float corners.
func TestEqualAgreesWithCompare(t *testing.T) {
	vals := []Value{
		NewNull(), NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(-1), NewFloat(0.5),
		NewString(""), NewString("a"), NewString("b"), NewString("0"), NewString("NULL"),
		NewStringBytes([]byte("a")), NewStringBytes([]byte("")), NewStringBytes([]byte("eq-bytes-only")),
		NewString("eq-bytes-only"), NewStringBytes([]byte("\xff\x00")),
	}
	for _, v := range vals {
		for _, w := range vals {
			if got, want := v.Equal(w), v.Compare(w) == 0; got != want {
				t.Errorf("%v(%v).Equal(%v(%v)) = %v, Compare says %v", v.K, v, w.K, w, got, want)
			}
		}
	}
}

// TestAppendTextIsString: AppendText appends exactly String's text, after
// whatever the buffer already holds.
func TestAppendTextIsString(t *testing.T) {
	for _, v := range []Value{
		NewNull(), NewInt(7), NewInt(-42), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(1.5), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(-1.0000000000000002e-300),
		NewString(""), NewString("Seattle"), {K: Kind(9)},
	} {
		if got := string(v.AppendText([]byte("x"))); got != "x"+v.String() {
			t.Errorf("%+v: AppendText gives %q, String %q", v, got, v.String())
		}
	}
	if got := (Value{K: Kind(9)}).String(); got != "?" {
		t.Errorf("unknown kind renders %q", got)
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int64() != 1 {
		t.Error("Clone shares storage")
	}
}

func TestSchemaIndexOf(t *testing.T) {
	s := Schema{{Name: "Country", Type: String}, {Name: "Date", Type: Int}}
	if s.IndexOf("date") != 1 {
		t.Error("IndexOf should be case-insensitive")
	}
	if s.IndexOf("missing") != -1 {
		t.Error("IndexOf missing should be -1")
	}
	if got := s.Names(); got[0] != "Country" || got[1] != "Date" {
		t.Errorf("Names: %v", got)
	}
}

func TestSchemaClone(t *testing.T) {
	s := Schema{{Name: "A", Type: Int}}
	c := s.Clone()
	c[0].Name = "B"
	if s[0].Name != "A" {
		t.Error("Clone shares storage")
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []Value{NewInt(-12), NewFloat(3.25), NewString("hello world"), NewNull()}
	for _, v := range cases {
		got, err := Parse(v.K, v.String())
		if err != nil {
			t.Fatalf("Parse(%v): %v", v, err)
		}
		if v.K != Null && !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if _, err := Parse(Int, "not-a-number"); err == nil {
		t.Error("Parse invalid int should error")
	}
	if _, err := Parse(Float, "x"); err == nil {
		t.Error("Parse invalid float should error")
	}
	if _, err := Parse(Kind(99), "x"); err == nil {
		t.Error("Parse unknown kind should error")
	}
}
