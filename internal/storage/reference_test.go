package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"payless/internal/value"
)

// The string-key executor this package had before its typed keys, kept as
// the differential reference: same rows in the same order, or the rewrite
// changed an answer. (Its one known defect — 0x1f inside a string can make
// two keys collide — is pinned by TestKeysDoNotCollideAcrossColumns; the
// generators here never emit that byte.)

func refRowKey(r value.Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteByte(byte(v.K) + '0')
		b.WriteString(v.String())
	}
	return b.String()
}

func refJoinKey(row value.Row, cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		v := row[c]
		// Normalise numerics so Int(2) joins Float(2.0).
		if v.K == value.Float && v.Float64() == float64(int64(v.Float64())) {
			v = value.NewInt(int64(v.Float64()))
		}
		b.WriteByte(byte(v.K) + '0')
		b.WriteString(v.String())
	}
	return b.String()
}

func refDistinct(r Relation) Relation {
	seen := make(map[string]struct{}, len(r.Rows))
	out := Relation{Schema: r.Schema}
	for _, row := range r.Rows {
		k := refRowKey(row)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func refCross(r, s Relation) Relation {
	out := Relation{Schema: append(r.Schema.Clone(), s.Schema.Clone()...)}
	for _, a := range r.Rows {
		for _, b := range s.Rows {
			out.Rows = append(out.Rows, append(append(value.Row{}, a...), b...))
		}
	}
	return out
}

func refHashJoin(r, s Relation, lc, rc []int) Relation {
	out := Relation{Schema: append(r.Schema.Clone(), s.Schema.Clone()...)}
	if len(lc) != len(rc) || len(lc) == 0 {
		return refCross(r, s)
	}
	// Build on the smaller side.
	build, probe := s, r
	bc, pc := rc, lc
	swapped := false
	if len(r.Rows) < len(s.Rows) {
		build, probe = r, s
		bc, pc = lc, rc
		swapped = true
	}
	ht := make(map[string][]value.Row, len(build.Rows))
	for _, row := range build.Rows {
		ht[refJoinKey(row, bc)] = append(ht[refJoinKey(row, bc)], row)
	}
	for _, prow := range probe.Rows {
		for _, brow := range ht[refJoinKey(prow, pc)] {
			var joined value.Row
			if swapped {
				joined = append(append(value.Row{}, brow...), prow...)
			} else {
				joined = append(append(value.Row{}, prow...), brow...)
			}
			out.Rows = append(out.Rows, joined)
		}
	}
	return out
}

type refAggState struct {
	count int64
	sum   float64
	min   value.Value
	max   value.Value
	seen  bool
}

func refAggregate(r Relation, groupBy []int, aggs []AggSpec) Relation {
	sch := NewAggregator(r.Schema, groupBy, aggs).schema
	groups := make(map[string][]*refAggState)
	keys := make(map[string]value.Row)
	var order []string
	newStates := func() []*refAggState {
		states := make([]*refAggState, len(aggs))
		for i := range states {
			states[i] = &refAggState{}
		}
		return states
	}
	for _, row := range r.Rows {
		gk := refJoinKey(row, groupBy)
		states, ok := groups[gk]
		if !ok {
			states = newStates()
			groups[gk] = states
			key := make(value.Row, len(groupBy))
			for i, g := range groupBy {
				key[i] = row[g]
			}
			keys[gk] = key
			order = append(order, gk)
		}
		for i, a := range aggs {
			st := states[i]
			if a.Col < 0 {
				st.count++
				continue
			}
			v := row[a.Col]
			if v.IsNull() {
				continue
			}
			st.count++
			st.sum += v.AsFloat()
			if !st.seen || v.Compare(st.min) < 0 {
				st.min = v
			}
			if !st.seen || v.Compare(st.max) > 0 {
				st.max = v
			}
			st.seen = true
		}
	}
	if len(groupBy) == 0 && len(order) == 0 {
		groups[""] = newStates()
		keys[""] = value.Row{}
		order = append(order, "")
	}
	out := Relation{Schema: sch}
	for _, gk := range order {
		row := append(value.Row{}, keys[gk]...)
		for i, a := range aggs {
			st := groups[gk][i]
			switch {
			case a.Func == Count:
				row = append(row, value.NewInt(st.count))
			case a.Func == Sum && st.count > 0:
				row = append(row, value.NewFloat(st.sum))
			case a.Func == Avg && st.count > 0:
				row = append(row, value.NewFloat(st.sum/float64(st.count)))
			case a.Func == Min && st.seen:
				row = append(row, st.min)
			case a.Func == Max && st.seen:
				row = append(row, st.max)
			default:
				row = append(row, value.NewNull())
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// render is an exact, collision-free picture of rows: kind and quoted
// payload per value, so NaN, -0 and NULL all compare as themselves.
func render(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			fmt.Fprintf(&b, "%d:%q ", v.K, v.String())
		}
		out[i] = b.String()
	}
	return out
}

func sameRelation(t *testing.T, what string, got, want Relation) {
	t.Helper()
	if !reflect.DeepEqual(got.Schema, want.Schema) {
		t.Fatalf("%s: schema %v, want %v", what, got.Schema, want.Schema)
	}
	if g, w := render(got.Rows), render(want.Rows); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: rows\n got %q\nwant %q", what, g, w)
	}
}

// keyValues is the pool key columns draw from: every kind, integral and
// fractional floats, both zeros, NaN, infinities and out-of-int64 floats,
// digits as strings.
var keyValues = []value.Value{
	value.NewNull(),
	value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(-1), value.NewInt(1 << 53), value.NewInt(1<<53 + 1),
	value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(1), value.NewFloat(2), value.NewFloat(2.5),
	value.NewFloat(1 << 53), value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
	value.NewFloat(1e300), value.NewFloat(-(1 << 63)),
	value.NewString(""), value.NewString("a"), value.NewString("b"), value.NewString("1"), value.NewString("2"), value.NewString("NULL"),
}

func randomRelation(rng *rand.Rand, prefix string, width, rows, pool int) Relation {
	rel := Relation{Schema: make(value.Schema, width)}
	for c := range rel.Schema {
		rel.Schema[c] = value.Column{Name: fmt.Sprintf("%s%d", prefix, c), Type: value.Int}
	}
	for i := 0; i < rows; i++ {
		row := make(value.Row, width)
		for c := range row {
			row[c] = keyValues[rng.Intn(pool)]
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

func randomCols(rng *rand.Rand, n, width int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = rng.Intn(width)
	}
	return cols
}

// refProject is r restricted to the columns keep, in that order.
func refProject(r Relation, keep []int) Relation {
	out := Relation{Schema: make(value.Schema, len(keep))}
	for i, c := range keep {
		out.Schema[i] = r.Schema[c]
	}
	for _, row := range r.Rows {
		p := make(value.Row, len(keep))
		for i, c := range keep {
			p[i] = row[c]
		}
		out.Rows = append(out.Rows, p)
	}
	return out
}

// flat maps the columns of the concatenated schema of t's inputs onto t's
// columns.
func flat(t Tuples, cols []int) []Col {
	out := make([]Col, len(cols))
	for i, c := range cols {
		k := 0
		for c >= len(t.In[k].Schema) {
			c -= len(t.In[k].Schema)
			k++
		}
		out[i] = Col{k, c}
	}
	return out
}

// whole is r as the tuples of one input, every row in order, in an arena
// of its own.
func whole(r Relation) Tuples { return NewArena().Whole(r.Schema, r.Rows) }

// streamJoin folds into agg the rows l++r of every pair Join returns over l
// and r, as the engine streams an aggregate's last join.
func streamJoin(l, r Relation, lc, rc []int, agg *Aggregator) {
	a := NewArena()
	defer a.Release()
	lt, rt := a.Whole(l.Schema, l.Rows), a.Whole(r.Schema, r.Rows)
	var cols []Col
	for k, in := range []Relation{l, r} {
		for c := range in.Schema {
			cols = append(cols, Col{k, c})
		}
	}
	a.Fold(agg, lt, rt, flat(lt, lc), flat(rt, rc), cols)
}

// joinKeep is the Join of l and r, materialised on the columns keep of the
// concatenated schema.
func joinKeep(l, r Relation, lc, rc, keep []int) Relation {
	a := NewArena()
	defer a.Release()
	lt, rt := a.Whole(l.Schema, l.Rows), a.Whole(r.Schema, r.Rows)
	t := a.Join(lt, rt, flat(lt, lc), flat(rt, rc))
	return t.Project(flat(t, keep))
}

// TestTypedKeysMatchStringKeys is the seeded differential property: over
// random relations with mixed-kind, multi-column, duplicated keys, empty
// sides and both build sides, the typed-key operators return the string-key
// operators' rows in the same order.
func TestTypedKeysMatchStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sizes := []int{0, 1, 2, 7, 40}
	for iter := 0; iter < 600; iter++ {
		// A small pool makes duplicates and matches common; the full pool
		// exercises every edge value.
		pool := len(keyValues)
		if iter%2 == 0 {
			pool = 2 + rng.Intn(len(keyValues)-1)
		}
		lw, rw := 1+rng.Intn(3), 1+rng.Intn(3)
		l := randomRelation(rng, "l", lw, sizes[rng.Intn(len(sizes))], pool)
		r := randomRelation(rng, "r", rw, sizes[rng.Intn(len(sizes))], pool) // either side may be the smaller
		nk := rng.Intn(3)                                                    // 0 keys: cartesian product
		lc, rc := randomCols(rng, nk, lw), randomCols(rng, nk, rw)
		what := fmt.Sprintf("iter %d (%d x %d rows, lc=%v rc=%v)", iter, l.Len(), r.Len(), lc, rc)

		want := refHashJoin(l, r, lc, rc)
		sameRelation(t, what+" HashJoin", HashJoin(l, r, lc, rc), want)

		keep := randomCols(rng, rng.Intn(lw+rw+1), lw+rw)
		sameRelation(t, what+" Join", joinKeep(l, r, lc, rc, keep), refProject(want, keep))

		groupBy := randomCols(rng, rng.Intn(3), lw+rw)
		aggs := []AggSpec{
			{Func: Count, Col: -1}, {Func: Count, Col: rng.Intn(lw + rw)}, {Func: Sum, Col: rng.Intn(lw + rw)},
			{Func: Avg, Col: rng.Intn(lw + rw), As: "mean"}, {Func: Min, Col: rng.Intn(lw + rw)}, {Func: Max, Col: rng.Intn(lw + rw)},
		}
		wantAgg := refAggregate(want, groupBy, aggs)
		sameRelation(t, what+" Aggregate", Aggregate(want, groupBy, aggs), wantAgg)
		streamed := NewAggregator(want.Schema, groupBy, aggs)
		streamJoin(l, r, lc, rc, streamed)
		sameRelation(t, what+" streamed Aggregate", streamed.Result(), wantAgg)

		sameRelation(t, what+" Distinct", l.Distinct(), refDistinct(l))
	}
}

// TestKeysDoNotCollideAcrossColumns pins the defect the typed keys fix: the
// 0x1f-separated string keys rendered ("a\x1f3b","c") and ("a","b\x1f3c")
// alike, so the two rows joined each other, grouped together and deduped to
// one.
func TestKeysDoNotCollideAcrossColumns(t *testing.T) {
	str := func(vs ...string) value.Row {
		r := make(value.Row, len(vs))
		for i, v := range vs {
			r[i] = value.NewString(v)
		}
		return r
	}
	a, b := str("a\x1f3b", "c"), str("a", "b\x1f3c")
	if refRowKey(a) != refRowKey(b) || refJoinKey(a, []int{0, 1}) != refJoinKey(b, []int{0, 1}) {
		t.Fatal("the reference keys no longer show the collision this test is about")
	}
	l := Relation{Schema: sch("x", "y"), Rows: []value.Row{a}}
	r := Relation{Schema: sch("u", "v"), Rows: []value.Row{b}}
	if n := HashJoin(l, r, []int{0, 1}, []int{0, 1}).Len(); n != 0 {
		t.Errorf("HashJoin matched %d rows across the collision, want 0", n)
	}
	both := Relation{Schema: sch("x", "y"), Rows: []value.Row{a, b}}
	if n := both.Distinct().Len(); n != 2 {
		t.Errorf("Distinct kept %d rows, want 2", n)
	}
	if n := Aggregate(both, []int{0, 1}, []AggSpec{{Func: Count, Col: -1}}).Len(); n != 2 {
		t.Errorf("Aggregate made %d groups, want 2", n)
	}
	tbl, err := NewDB().Create("T", both.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tbl.Insert(both.Rows); err != nil || n != 2 {
		t.Errorf("Table.Insert added %d rows (%v), want 2", n, err)
	}
}

// scaleRelation is a relation of n rows for TestTypedKeysMatchStringKeysAtScale.
// Column 0 holds integers sharing their low 20 bits, some written as the
// equal Float, and column 1 mixes every kind; hot rows, spread evenly, all
// take one key in both. Column 2 has four values, so whole rows repeat.
func scaleRelation(rng *rand.Rand, prefix string, n, keys, hot int) Relation {
	mixed := []value.Value{value.NewNull(), value.NewInt(1), value.NewFloat(1), value.NewFloat(2.5), value.NewString("a"), value.NewString("1")}
	rel := randomRelation(rng, prefix, 3, 0, 0)
	for i := 0; i < n; i++ {
		k, m := int64(rng.Intn(keys))<<20, mixed[rng.Intn(len(mixed))]
		if i%(n/hot) == 0 {
			k, m = 7<<20, mixed[4]
		}
		key := value.NewInt(k)
		if rng.Intn(4) == 0 {
			key = value.NewFloat(float64(k))
		}
		rel.Rows = append(rel.Rows, value.Row{key, m, value.NewInt(int64(rng.Intn(4)))})
	}
	return rel
}

// TestTypedKeysMatchStringKeysAtScale is TestTypedKeysMatchStringKeys at the
// sizes where the key table grows and probes run long: thousands of rows,
// one hot key repeated hundreds of times on both sides, keys sharing their
// low bits, multi-column keys over mixed kinds, and either side the build.
func TestTypedKeysMatchStringKeysAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, c := range []struct {
		ln, rn, keys, lhot, rhot int
		lc, rc                   []int
	}{
		{3000, 400, 2000, 100, 150, []int{0}, []int{0}},
		{400, 3000, 2000, 150, 100, []int{0, 1}, []int{0, 1}},
		{2500, 2500, 500, 100, 120, []int{1, 0}, []int{1, 0}},
		{300, 200, 50, 100, 100, []int{1}, []int{1}},
	} {
		l := scaleRelation(rng, "l", c.ln, c.keys, c.lhot)
		r := scaleRelation(rng, "r", c.rn, c.keys, c.rhot)
		what := fmt.Sprintf("%d x %d rows, lc=%v rc=%v", l.Len(), r.Len(), c.lc, c.rc)

		want := refHashJoin(l, r, c.lc, c.rc)
		sameRelation(t, what+" HashJoin", HashJoin(l, r, c.lc, c.rc), want)
		keep := []int{4, 0, 2}
		sameRelation(t, what+" Join", joinKeep(l, r, c.lc, c.rc, keep), refProject(want, keep))

		aggs := []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 2}, {Func: Min, Col: 4}, {Func: Max, Col: 1}}
		for _, groupBy := range [][]int{{0}, {1, 5}, {3, 1, 2}} {
			wantAgg := refAggregate(want, groupBy, aggs)
			sameRelation(t, fmt.Sprintf("%s Aggregate by %v", what, groupBy), Aggregate(want, groupBy, aggs), wantAgg)
			streamed := NewAggregator(want.Schema, groupBy, aggs)
			streamJoin(l, r, c.lc, c.rc, streamed)
			sameRelation(t, fmt.Sprintf("%s streamed Aggregate by %v", what, groupBy), streamed.Result(), wantAgg)
		}

		sameRelation(t, what+" Distinct", l.Distinct(), refDistinct(l))
	}
}

// TestDenseKeysMatchStringKeys is the differential property of match's
// direct-indexed path: build keys that are integers under value.NumericKey
// (Int, or an integral Float) in a range up to its 9-per-row limit and just
// past it, near zero and at both int64 edges, against probe keys inside and
// outside the range, written as Int or Float, non-integral and NaN floats,
// -0.0, NULL and strings, with either side the build. Rows and their order
// must be the string-key reference's, and both paths must run.
func TestDenseKeysMatchStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var paths [2]int // hashed, direct
	for iter := 0; iter < 400; iter++ {
		n := []int{1, 2, 9, 60, 300}[rng.Intn(5)]
		lo := []int64{0, -30, 1 << 40, math.MinInt64, math.MaxInt64 - 9*300 - 64}[rng.Intn(5)]
		span := []int64{int64(n), int64(9*n + 64), int64(9*n + 65), 1}[rng.Intn(3+min(1, 9/n))] // one key: up to 9 rows
		num := func(k int64) value.Value {
			if k > -(1<<53) && k < 1<<53 && rng.Intn(3) == 0 {
				return value.NewFloat(float64(k))
			}
			return value.NewInt(k)
		}
		build := func(rows int) Relation {
			rel := randomRelation(rng, "b", 2, 0, 0)
			for i := 0; i < rows; i++ {
				k := num(lo + rng.Int63n(span))
				if i == 0 {
					k = num(lo) // the range's ends are taken
				} else if i == 1 {
					k = num(lo + span - 1)
				}
				rel.Rows = append(rel.Rows, value.Row{k, value.NewInt(int64(i))})
			}
			if rows > 0 && rng.Intn(8) == 0 { // a key that is no integer: hashed
				rel.Rows[rng.Intn(rows)][0] = keyValues[rng.Intn(len(keyValues))]
			}
			return rel
		}
		probe := func(rows int) Relation {
			rel := randomRelation(rng, "p", 2, 0, 0)
			for i := 0; i < rows; i++ {
				var k value.Value
				switch rng.Intn(4) {
				case 0:
					k = keyValues[rng.Intn(len(keyValues))]
				case 1:
					k = num(lo + span + rng.Int63n(3) - 1) // at and past the top
				case 2:
					k = num(lo + rng.Int63n(3) - 1) // at and below the bottom
				default:
					k = num(lo + rng.Int63n(span))
				}
				rel.Rows = append(rel.Rows, value.Row{value.NewInt(int64(i)), k})
			}
			return rel
		}
		b, p := build(n), probe(n+rng.Intn(2*n+1))
		l, r, lc, rc := p, b, []int{1}, []int{0}
		if rng.Intn(2) == 0 { // the build side on the left: probe rows must outnumber it
			l, r, lc, rc = b, probe(n+1+rng.Intn(2*n)), []int{0}, []int{1}
		}
		bRows := r.Rows
		if len(l.Rows) < len(r.Rows) {
			bRows = l.Rows
		}
		_, _, dense := NewArena().dense(whole(Relation{Schema: r.Schema, Rows: bRows}), []Col{{0, 0}})
		if bRows[0][0] != b.Rows[0][0] { // the build is b whenever the test means it to be
			t.Fatalf("iter %d: the build side is not the dense-keyed relation", iter)
		}
		paths[map[bool]int{false: 0, true: 1}[dense]]++
		what := fmt.Sprintf("iter %d (%d x %d rows, keys from %d over %d)", iter, l.Len(), r.Len(), lo, span)
		want := refHashJoin(l, r, lc, rc)
		sameRelation(t, what+" HashJoin", HashJoin(l, r, lc, rc), want)
		streamed := NewAggregator(want.Schema, []int{0}, []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 3}})
		streamJoin(l, r, lc, rc, streamed)
		sameRelation(t, what+" streamed Aggregate", streamed.Result(), refAggregate(want, []int{0}, []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 3}}))
	}
	if paths[0] < 50 || paths[1] < 50 {
		t.Errorf("%d joins hashed and %d indexed their keys directly; the test wants both paths", paths[0], paths[1])
	}
}

// TestTupleChainsMatchRowJoins is the differential property of chains of id
// joins: two to four random relations joined one after the other, keys drawn
// from any input of the tuples so far (so a key may span inputs), a filter
// compacting the ids between joins, the last join's pairs read in blocks, the
// arena reused across chains. Rows and their order must be the string-key
// reference's over materialised relations.
func TestTupleChainsMatchRowJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	sizes := []int{0, 1, 3, 8, 30}
	for iter := 0; iter < 500; iter++ {
		pool := 2 + rng.Intn(6)
		a := NewArena()
		rel := func(i int) Relation {
			return randomRelation(rng, fmt.Sprintf("t%d_", i), 1+rng.Intn(3), sizes[rng.Intn(len(sizes))], pool)
		}
		ref := rel(0)
		cur := a.Whole(ref.Schema, ref.Rows)
		if rng.Intn(2) == 0 { // a selection of ids, not every row
			var ids []int32
			for i := range ref.Rows {
				if rng.Intn(3) > 0 {
					ids = append(ids, int32(i))
				}
			}
			cur = a.Filter(cur, func(i int) bool { _, ok := slices.BinarySearch(ids, int32(i)); return ok })
			ref = refSelect(ref, ids)
		}
		steps := 1 + rng.Intn(3)
		for step := 1; step <= steps; step++ {
			next := rel(step)
			nk := rng.Intn(3)
			lc, rc := randomCols(rng, nk, len(ref.Schema)), randomCols(rng, nk, len(next.Schema))
			what := fmt.Sprintf("iter %d step %d (%d x %d rows, lc=%v rc=%v)", iter, step, ref.Len(), next.Len(), lc, rc)
			want := refHashJoin(ref, next, lc, rc)
			in := a.Whole(next.Schema, next.Rows)
			if step == steps && iter%2 == 0 {
				// The pairs a few at a time, so that a probe tuple's matches
				// cross the edges.
				var got []value.Row
				p, ls, rs := a.match(cur, in, flat(cur, lc), flat(in, rc)), make([]int32, 1+iter%5), make([]int32, 1+iter%5)
				for n := p.fill(ls, rs); n > 0; n = p.fill(ls, rs) {
					for j := range n {
						var row value.Row
						for k := range cur.In {
							for c := range cur.In[k].Schema {
								row = append(row, cur.Value(Col{k, c}, int(ls[j])))
							}
						}
						got = append(got, append(row, next.Rows[rs[j]]...))
					}
				}
				sameRelation(t, what+" pairs", Relation{Schema: want.Schema, Rows: got}, want)
				break
			}
			cur, ref = a.Join(cur, in, flat(cur, lc), flat(in, rc)), want
			all := make([]int, len(ref.Schema))
			for i := range all {
				all[i] = i
			}
			sameRelation(t, what+" Join", cur.Project(flat(cur, all)), ref)
			if rng.Intn(2) == 0 {
				c, v := rng.Intn(len(ref.Schema)), keyValues[rng.Intn(pool)]
				at, src := flat(cur, []int{c})[0], cur
				cur = a.Filter(src, func(i int) bool { return !src.Value(at, i).Equal(v) })
				ref = ref.Select(func(row value.Row) bool { return !row[c].Equal(v) })
				sameRelation(t, what+" Filter", cur.Project(flat(cur, all)), ref)
			}
		}
		a.Release()
	}
}

// refSelect is r's rows ids, in that order.
func refSelect(r Relation, ids []int32) Relation {
	out := Relation{Schema: r.Schema}
	for _, id := range ids {
		out.Rows = append(out.Rows, r.Rows[id])
	}
	return out
}
