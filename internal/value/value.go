// Package value provides the typed value, row and schema substrate shared by
// every PayLess subsystem: the data-market simulator, the local DBMS, the
// optimizer and the execution engine.
//
// Values are a small tagged union rather than an interface so that rows are
// cache-friendly, comparable and cheap to hash (see Key). Dates are represented as
// int64 in YYYYMMDD form, following the paper's examples (e.g. 20140601).
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	Null Kind = iota
	Int
	Float
	String
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is Null.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// NewInt returns an Int value.
func NewInt(i int64) Value { return Value{K: Int, I: i} }

// NewFloat returns a Float value.
func NewFloat(f float64) Value { return Value{K: Float, F: f} }

// NewString returns a String value.
func NewString(s string) Value { return Value{K: String, S: s} }

// NewNull returns the Null value.
func NewNull() Value { return Value{} }

// IsNull reports whether v is the Null value.
func (v Value) IsNull() bool { return v.K == Null }

// AsFloat returns the numeric content of v as a float64.
// Strings and nulls yield NaN.
func (v Value) AsFloat() float64 {
	switch v.K {
	case Int:
		return float64(v.I)
	case Float:
		return v.F
	default:
		return math.NaN()
	}
}

// AsInt returns the numeric content of v as an int64 (floats truncate).
func (v Value) AsInt() int64 {
	switch v.K {
	case Int:
		return v.I
	case Float:
		return int64(v.F)
	default:
		return 0
	}
}

// String renders the value for display and wire encoding.
func (v Value) String() string {
	switch v.K {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case String:
		return v.S
	default:
		return "?"
	}
}

// Compare orders two values: -1 if v < w, 0 if equal, +1 if v > w.
// Null sorts before everything; numeric kinds compare numerically across
// Int/Float; strings compare lexicographically. Comparing a numeric value
// against a string falls back to kind ordering, which is stable but
// arbitrary — PayLess schemas never mix kinds within an attribute.
func (v Value) Compare(w Value) int {
	if v.K == Null || w.K == Null {
		switch {
		case v.K == Null && w.K == Null:
			return 0
		case v.K == Null:
			return -1
		default:
			return 1
		}
	}
	vn := v.K == Int || v.K == Float
	wn := w.K == Int || w.K == Float
	switch {
	case vn && wn:
		if v.K == Int && w.K == Int {
			switch {
			case v.I < w.I:
				return -1
			case v.I > w.I:
				return 1
			}
			return 0
		}
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case v.K == String && w.K == String:
		return strings.Compare(v.S, w.S)
	case vn:
		return -1
	default:
		return 1
	}
}

// Equal reports whether v and w compare equal.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// Row is a tuple of values laid out in schema order.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Type Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// IndexOf returns the position of the named column, or -1.
// Matching is case-insensitive, following SQL convention.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	c := make(Schema, len(s))
	copy(c, s)
	return c
}

// Parse converts a wire string back into a Value of the given kind.
func Parse(k Kind, s string) (Value, error) {
	switch k {
	case Null:
		return Value{}, nil
	case Int:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse int %q: %w", s, err)
		}
		return NewInt(i), nil
	case Float:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse float %q: %w", s, err)
		}
		return NewFloat(f), nil
	case String:
		return NewString(s), nil
	default:
		return Value{}, fmt.Errorf("unknown kind %v", k)
	}
}
