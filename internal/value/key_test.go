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

// TestKeyTableAgainstMap drives the table through growth from its smallest
// size with many duplicate keys and keys sharing their low bits, on both of
// its paths: one-column keys stored inline, and wider keys stored by hash
// and confirmed against rows, each over a column that mixes kinds, named or
// as whole rows. Every key must keep the id of its first insertion, and
// lookups by a probe row holding the key elsewhere must find it.
func TestKeyTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		cols, pc []int // nil: the whole row
		width    int
	}{{[]int{0}, []int{4}, 3}, {[]int{2, 0}, []int{3, 4}, 3}, {nil, nil, 3}, {nil, nil, 1}} {
		keyOf := func(r Row, cols []int) Row {
			if cols == nil {
				return r
			}
			k := make(Row, len(cols))
			for i, col := range cols {
				k[i] = r[col]
			}
			return k
		}
		x := NewKeyTable(NumericKey, c.cols, 0)
		var rows []Row
		want := map[string]int{}
		for i := 0; i < 5000; i++ {
			k := int64(rng.Intn(700)) << uint(rng.Intn(3)*16) // shared low bits
			// NULL, or Int(k) or Float(k), which meet, or a string.
			var mixed Value
			switch rng.Intn(4) {
			case 1:
				mixed = NewInt(k)
			case 2:
				mixed = NewFloat(float64(k))
			case 3:
				mixed = NewString(string(rune('a' + k%3)))
			}
			r := Row{mixed, NewInt(k), NewInt(k % 5)}[:c.width]
			name := refKey(NumericKey, keyOf(r, c.cols))
			first, seen := want[name]
			if !seen {
				first = len(rows)
				want[name] = first
			}
			if got := x.Insert(RowsOf(rows), r, len(rows)); got != first && (seen || got != -1) {
				t.Fatalf("cols %v: Insert(%v) = %d, want %d", c.cols, r, got, first)
			}
			if !seen {
				rows = append(rows, r)
			}
			if i == 2500 {
				x.Grow(5000) // one batch's worth at once
			}
		}
		if len(rows) != len(want) {
			t.Fatalf("cols %v: %d rows, want %d keys", c.cols, len(rows), len(want))
		}
		probe := func(key Row) Row {
			if c.pc == nil {
				return key.Clone()
			}
			p := make(Row, 5)
			for i, col := range c.pc {
				p[col] = key[i]
			}
			return p
		}
		var probes []Row
		for id := range rows {
			probes = append(probes, probe(keyOf(rows[id], c.cols)))
		}
		absent := Row{NewInt(1 << 40), NewInt(1), NewInt(1)}[:len(keyOf(rows[0], c.cols))]
		probes = append(probes, probe(absent))
		ids := make([]int32, len(probes))
		x.Find(RowsOf(rows), probes, c.pc, ids)
		for p, got := range ids {
			want := p
			if p == len(rows) {
				want = -1
			}
			if int(got) != want {
				t.Fatalf("cols %v: Find(%v) = %d, want %d", c.cols, probes[p], got, want)
			}
		}
	}

	// A 64-bit hash shared by two keys: the slot of {1, 2} is made to stand
	// for {3, 4}, so that {1, 2} meets a slot with its hash and another row.
	rows := []Row{{NewInt(1), NewInt(2)}}
	x := NewKeyTable(ExactKey, nil, 0)
	x.Insert(RowsOf(rows), rows[0], 0)
	rows = []Row{{NewInt(3), NewInt(4)}, {NewInt(1), NewInt(2)}}
	ids := []int32{7}
	if x.Find(RowsOf(rows), rows[1:], nil, ids); ids[0] != -1 {
		t.Errorf("a key found through another key's row: id %d", ids[0])
	}
	if got := x.Insert(RowsOf(rows), rows[1], 1); got != -1 {
		t.Errorf("Insert past a shared hash = %d, want -1", got)
	}
	if x.Find(RowsOf(rows), rows[1:], nil, ids); ids[0] != 1 {
		t.Errorf("Find past a shared hash = %d, want 1", ids[0])
	}
}

// TestKeyTableFindUnderCollisions: Find against a map on tables of 8 slots,
// where most keys share a home slot with another, so probes end on slots
// holding other keys' bits, on slots of other kinds with the same payload and
// on empty slots after a run. The keys are NumericKey's hard cases: NaNs of
// several payloads, 0.0 and −0.0, integral floats that meet ints, the int64
// edges and non-integral floats. A table is filled from the back with Put, as
// a join's build side is, so each key must find its first row; the inline
// path (one column) and the hashed path (two) both run.
func TestKeyTableFindUnderCollisions(t *testing.T) {
	pool := []Value{
		NewNull(), NewInt(0), NewFloat(0), NewFloat(math.Copysign(0, -1)), NewInt(2), NewFloat(2), NewFloat(2.5),
		NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000123)), NewFloat(math.Float64frombits(0xfff0000000000001)),
		NewInt(math.MinInt64), NewFloat(-(1 << 63)), NewInt(math.MaxInt64), NewFloat(1 << 63),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewInt(1 << 53), NewFloat(1 << 53), NewInt(-7), NewFloat(-7),
		NewString("a"), NewString("2"),
	}
	rng := rand.New(rand.NewSource(45))
	shared := 0
	for round := 0; round < 2000; round++ {
		cols := []int{0}
		if round%2 == 1 {
			cols = []int{0, 1}
		}
		rows := make([]Row, 2+rng.Intn(5)) // at most 6 ids: a table of 8 slots never grows
		for i := range rows {
			rows[i] = Row{pool[rng.Intn(len(pool))], NewInt(int64(rng.Intn(2)))}
		}
		x := NewKeyTable(NumericKey, cols, 2)
		if len(x.slots) != 8 {
			t.Fatalf("a table for 2 entries has %d slots, want 8", len(x.slots))
		}
		for i := len(rows) - 1; i >= 0; i-- {
			x.Put(RowsOf(rows), rows[i], i)
		}
		first := map[string]int32{}
		for i := len(rows) - 1; i >= 0; i-- {
			first[refKey(NumericKey, Row{rows[i][0], rows[i][1]}[:len(cols)])] = int32(i)
		}
		probes := make([]Row, len(pool)*2)
		for i := range probes {
			probes[i] = Row{NewInt(9), pool[i/2], NewInt(int64(i % 2))} // the key in columns 1 and 2
		}
		pc := []int{1, 2}[:len(cols)]
		ids := make([]int32, len(probes))
		x.Find(RowsOf(rows), probes, pc, ids)
		for p, got := range ids {
			want, ok := first[refKey(NumericKey, probes[p][1:1+len(cols)])]
			if !ok {
				want = -1
			}
			if got != want {
				t.Fatalf("round %d, cols %v, rows %v: Find(%v) = %d, a map says %d", round, cols, rows, probes[p][1:], got, want)
			}
		}
		for i, s := range x.slots {
			if s.tag != 0 && x.home(s.hash()) != i {
				shared++
			}
		}
	}
	t.Logf("%d keys sat away from their home slot", shared)
	if shared < 500 {
		t.Errorf("only %d keys sat away from their home slot; the test wants collisions", shared)
	}
}
