package value

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refKey is the string key the typed keys replace (Row.Key when exact,
// storage's joinKey when numeric): the differential reference for every
// pair of values that holds no 0x1f byte.
func refKey(k Key, r Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		if k == NumericKey && v.K == Float && v.Float64() == float64(int64(v.Float64())) {
			v = NewInt(int64(v.Float64()))
		}
		b.WriteByte(byte(v.K) + '0')
		b.WriteString(v.String())
	}
	return b.String()
}

var edgeValues = []Value{
	NewNull(),
	NewInt(0), NewInt(1), NewInt(2), NewInt(-1), NewInt(97), NewInt(math.MinInt64), NewInt(math.MaxInt64),
	NewInt(1 << 53), NewInt(1<<53 + 1),
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(2), NewFloat(2.5), NewFloat(-1),
	NewFloat(1 << 53), NewFloat(1 << 63), NewFloat(-(1 << 63)), NewFloat(1e300), NewFloat(-1e300),
	NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000123)), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
	NewString(""), NewString("a"), NewString("1"), NewString("2"), NewString("NULL"), NewString("NaN"),
}

// TestKeysAgreeWithStringKeys checks both flavours against the string keys
// on every pair of edge values: equal exactly when the strings were, and
// equal keys hash alike.
func TestKeysAgreeWithStringKeys(t *testing.T) {
	for _, k := range []Key{ExactKey, NumericKey} {
		for _, a := range edgeValues {
			for _, b := range edgeValues {
				ra, rb := Row{a, NewInt(7)}, Row{b, NewInt(7)}
				want := refKey(k, ra) == refKey(k, rb)
				if got := k.EqualRows(ra, rb); got != want {
					t.Errorf("key %d: EqualRows(%v, %v) = %v, string keys say %v", k, a, b, got, want)
				}
				if got := k.EqualCols(ra, []int{1, 0}, rb, []int{1, 0}); got != want {
					t.Errorf("key %d: EqualCols(%v, %v) = %v, string keys say %v", k, a, b, got, want)
				}
				if want && k.HashRow(ra) != k.HashRow(rb) {
					t.Errorf("key %d: %v and %v are equal but hash apart", k, a, b)
				}
				if k.HashCols(ra, []int{0, 1}) != k.HashRow(ra) {
					t.Errorf("key %d: HashCols over every column differs from HashRow for %v", k, a)
				}
			}
		}
	}
}

// TestKeyEdgeCases states the documented semantics outright.
func TestKeyEdgeCases(t *testing.T) {
	eq := func(k Key, a, b Value) bool { return k.EqualRows(Row{a}, Row{b}) }
	negZero := NewFloat(math.Copysign(0, -1))
	cases := []struct {
		a, b           Value
		exact, numeric bool
	}{
		{NewNull(), NewNull(), true, true},
		{NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000123)), true, true},
		{NewInt(2), NewFloat(2), false, true},
		{NewInt(0), negZero, false, true},
		{NewFloat(0), negZero, false, true},
		{NewInt(1), NewString("1"), false, false},
		{NewNull(), NewString("NULL"), false, false},
		{NewFloat(2.5), NewFloat(2.5), true, true},
		{NewInt(1<<53 + 1), NewFloat(1 << 53), false, false},
		{NewFloat(math.Inf(1)), NewInt(math.MaxInt64), false, false},
	}
	for _, c := range cases {
		if got := eq(ExactKey, c.a, c.b); got != c.exact {
			t.Errorf("ExactKey: %v vs %v = %v, want %v", c.a, c.b, got, c.exact)
		}
		if got := eq(NumericKey, c.a, c.b); got != c.numeric {
			t.Errorf("NumericKey: %v vs %v = %v, want %v", c.a, c.b, got, c.numeric)
		}
	}
	if ExactKey.EqualRows(Row{NewInt(1)}, Row{NewInt(1), NewInt(1)}) {
		t.Error("rows of different width are equal")
	}
	// The collision the string keys had: a separator inside a string.
	a, b := Row{NewString("a\x1f3b"), NewString("c")}, Row{NewString("a"), NewString("b\x1f3c")}
	if refKey(ExactKey, a) != refKey(ExactKey, b) {
		t.Fatal("the reference key no longer shows the collision")
	}
	if ExactKey.EqualRows(a, b) || NumericKey.EqualCols(a, []int{0, 1}, b, []int{0, 1}) {
		t.Error("typed keys collide across columns")
	}
}

func TestKeysDoNotAllocate(t *testing.T) {
	a := Row{NewInt(3), NewString("United States"), NewFloat(2.5), NewNull()}
	b := a.Clone()
	cols := []int{1, 0, 2}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		sink += NumericKey.HashCols(a, cols) + ExactKey.HashRow(a)
		if !NumericKey.EqualCols(a, cols, b, cols) || !ExactKey.EqualRows(a, b) {
			sink++
		}
	}); n != 0 {
		t.Errorf("%v allocations per key hash + compare, want 0", n)
	}
}

// TestHashIndexAgainstMap drives the index through growth with many
// duplicate and colliding hashes and checks ids, chain order and lookups
// against a map.
func TestHashIndexAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := NewHashIndex(0)
	want := map[uint64][]int{}
	for i := 0; i < 5000; i++ {
		h := uint64(rng.Intn(700)) << uint(rng.Intn(3)*8) // shared low bits: long bucket chains
		if id := x.Add(h); id != i {
			t.Fatalf("Add returned id %d, want %d", id, i)
		}
		want[h] = append(want[h], i)
	}
	if x.Len() != 5000 {
		t.Fatalf("Len = %d", x.Len())
	}
	for h, ids := range want {
		var got []int
		for id := x.First(h); id >= 0; id = x.Next(id) {
			got = append(got, id)
		}
		if len(got) != len(ids) {
			t.Fatalf("hash %d: ids %v, want %v", h, got, ids)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("hash %d: ids %v, want insertion order %v", h, got, ids)
			}
		}
	}
	if x.First(1<<40+1) != -1 {
		t.Error("First of an absent hash")
	}
	rows := []Row{{NewString("x")}, {NewString("y")}}
	ix := NewHashIndex(len(rows))
	for range rows {
		ix.Add(7) // every row collides
	}
	for i, r := range rows {
		if got := ix.Lookup(ExactKey, rows, r, 7); got != i {
			t.Errorf("Lookup(%v) = %d, want %d", r, got, i)
		}
	}
	if got := ix.Lookup(ExactKey, rows, Row{NewString("z")}, 7); got != -1 {
		t.Errorf("Lookup of an absent row = %d", got)
	}
}
