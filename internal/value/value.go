// Package value provides the typed value, row and schema substrate shared by
// every PayLess subsystem: the data-market simulator, the local DBMS, the
// optimizer and the execution engine.
//
// A Value is 16 pointer-free bytes — a kind and one 64-bit payload, a
// string's payload being its id in the process-wide dictionary (intern.go) —
// so row slabs live in memory the garbage collector never scans, and every
// key hashes and compares as integers (see Key). Dates are represented as
// int64 in YYYYMMDD form, following the paper's examples (e.g. 20140601).
package value

import (
	"encoding/binary"
	"errors"
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

// ParseKind is the inverse of Kind.String for the four kinds.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{Null, Int, Float, String} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

// Value is a dynamically typed scalar. The zero Value is Null.
//
// The payload x holds an Int's int64 bits, a Float's float64 bits or a
// String's dictionary id; Null's is 0. Interning is canonical, so Go's ==
// on two Values is same kind and same payload bits.
type Value struct {
	K Kind
	x uint64
}

// NewInt returns an Int value.
func NewInt(i int64) Value { return Value{K: Int, x: uint64(i)} }

// NewFloat returns a Float value.
func NewFloat(f float64) Value { return Value{K: Float, x: math.Float64bits(f)} }

// NewString returns a String value. The dictionary keeps its own copy of s.
func NewString(s string) Value { return Value{K: String, x: internString(s)} }

// NewStringBytes returns the String value of b. Text seen before costs no
// allocation, and b is never retained.
func NewStringBytes(b []byte) Value { return Value{K: String, x: internBytes(b)} }

// NewNull returns the Null value.
func NewNull() Value { return Value{} }

// Int64 returns an Int's payload; it is meaningless for other kinds.
func (v Value) Int64() int64 { return int64(v.x) }

// Float64 returns a Float's payload; it is meaningless for other kinds.
func (v Value) Float64() float64 { return math.Float64frombits(v.x) }

// Str returns a String's text, or "" for other kinds. It never allocates.
func (v Value) Str() string {
	if v.K != String {
		return ""
	}
	return lookup(v.x)
}

// IsNull reports whether v is the Null value.
func (v Value) IsNull() bool { return v.K == Null }

// AsFloat returns the numeric content of v as a float64.
// Strings and nulls yield NaN.
func (v Value) AsFloat() float64 {
	switch v.K {
	case Int:
		return float64(v.Int64())
	case Float:
		return v.Float64()
	default:
		return math.NaN()
	}
}

// AsInt returns the numeric content of v as an int64 (floats truncate).
func (v Value) AsInt() int64 {
	switch v.K {
	case Int:
		return v.Int64()
	case Float:
		return int64(v.Float64())
	default:
		return 0
	}
}

// String renders the value for display and wire encoding: the text
// AppendText appends. A String's text is the dictionary's own.
func (v Value) String() string {
	switch v.K {
	case Null:
		return "NULL"
	case String:
		return lookup(v.x)
	}
	var buf [32]byte // the longest Int or Float text is 24 bytes
	return string(v.AppendText(buf[:0]))
}

// AppendText appends v's String rendering to buf and returns the extended
// buffer.
func (v Value) AppendText(buf []byte) []byte {
	switch v.K {
	case Null:
		return append(buf, "NULL"...)
	case Int:
		return strconv.AppendInt(buf, v.Int64(), 10)
	case Float:
		return strconv.AppendFloat(buf, v.Float64(), 'g', -1, 64)
	case String:
		return append(buf, lookup(v.x)...)
	default:
		return append(buf, '?')
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
			switch a, b := v.Int64(), w.Int64(); {
			case a < b:
				return -1
			case a > b:
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
		if v.x == w.x {
			return 0
		}
		return strings.Compare(lookup(v.x), lookup(w.x))
	case vn:
		return -1
	default:
		return 1
	}
}

// Equal reports whether v and w compare equal. Two strings are equal when
// their dictionary ids are: each text has exactly one.
func (v Value) Equal(w Value) bool {
	if v.K == String && w.K == String {
		return v.x == w.x
	}
	return v.Compare(w) == 0
}

// GobEncode encodes v as its kind byte followed by its payload: eight
// little-endian bytes for Int and Float, the text for String, nothing for
// Null. Dictionary ids never leave the process. The benchmark ledger hands
// its daemon the local tables' rows this way (benchmarks/ledger/roles.go).
func (v Value) GobEncode() ([]byte, error) {
	switch v.K {
	case Null:
		return []byte{byte(Null)}, nil
	case String:
		s := lookup(v.x)
		return append(append(make([]byte, 0, 1+len(s)), byte(String)), s...), nil
	default:
		return binary.LittleEndian.AppendUint64([]byte{byte(v.K)}, v.x), nil
	}
}

// GobDecode is the inverse of GobEncode.
func (v *Value) GobDecode(b []byte) error {
	if len(b) == 0 {
		return errors.New("value: empty gob encoding")
	}
	switch k := Kind(b[0]); k {
	case Null:
		*v = Value{}
	case String:
		*v = NewStringBytes(b[1:])
	case Int, Float:
		if len(b) != 9 {
			return fmt.Errorf("value: %v gob encoding of %d bytes", k, len(b))
		}
		*v = Value{K: k, x: binary.LittleEndian.Uint64(b[1:])}
	default:
		return fmt.Errorf("value: gob encoding of unknown kind %d", b[0])
	}
	return nil
}

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
