package storage

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"payless/internal/value"
)

// blockCase is one join of TestBlocksMatchReference: l and r joined on
// their first columns, or on nothing when keyless.
type blockCase struct {
	name    string
	l, r    Relation
	keyless bool
	pairs   int // the pairs the join must have, -1 for any
}

// blockRelation is a relation of the differential's shape: a key, a group
// column, a string column and a numeric one, named with prefix.
func blockRelation(rng *rand.Rand, prefix string, keys []value.Value) Relation {
	groupVals := []value.Value{value.NewNull(), value.NewFloat(math.NaN()), value.NewInt(1), value.NewFloat(1), value.NewInt(2),
		value.NewString("a"), value.NewFloat(2.5)}
	strs := []value.Value{value.NewNull(), value.NewString(""), value.NewString("a"), value.NewString("b"), value.NewString("zz")}
	num := func() value.Value {
		switch rng.Intn(5) {
		case 0:
			return value.NewNull()
		case 1:
			return value.NewInt(int64(rng.Intn(201) - 100))
		case 2: // large enough that a sum's order shows in its last bits
			return value.NewFloat(rng.NormFloat64() * 1e16)
		default:
			return value.NewFloat(rng.NormFloat64() * 1e3)
		}
	}
	rel := Relation{Schema: sch(prefix+"k", prefix+"g", prefix+"s", prefix+"x")}
	for _, k := range keys {
		rel.Rows = append(rel.Rows, value.Row{k, groupVals[rng.Intn(len(groupVals))], strs[rng.Intn(len(strs))], num()})
	}
	return rel
}

// intKey is k as an Int or, now and then, as the equal Float.
func intKey(rng *rand.Rand, k int64) value.Value {
	if rng.Intn(5) == 0 {
		return value.NewFloat(float64(k))
	}
	return value.NewInt(k)
}

// blockCases draws the joins of one seed: for each pair count around the
// block edges, a keyed join of either build side and a keyless one, then a
// build side whose chains cross its two blocks.
func blockCases(rng *rand.Rand) []blockCase {
	var cases []blockCase
	misses := []value.Value{value.NewNull(), value.NewFloat(math.NaN()), value.NewFloat(0.5), value.NewString("7"), value.NewInt(1 << 40)}
	for _, n := range []int{0, 1, block - 1, block, block + 1, 3*block + 7} {
		// Keyed: the build side holds k distinct keys, the probe side n keys
		// among them and some that meet none; now and then a build key that
		// is no integer sends the join down the hashed path.
		k := 1 + rng.Intn(40)
		build := make([]value.Value, k)
		for i := range build {
			build[i] = intKey(rng, int64(3*i))
		}
		if rng.Intn(3) == 0 {
			build = append(build, value.NewString("x"))
		}
		var probe []value.Value
		for range n {
			probe = append(probe, intKey(rng, int64(3*rng.Intn(k))))
		}
		for range rng.Intn(4) * min(1, n) { // with n 0, the probe side stays empty
			at := rng.Intn(len(probe) + 1)
			probe = append(probe[:at], append([]value.Value{misses[rng.Intn(len(misses))]}, probe[at:]...)...)
		}
		b, p := blockRelation(rng, "b", build), blockRelation(rng, "p", probe)
		c := blockCase{name: fmt.Sprintf("keyed %d pairs", n), l: p, r: b, pairs: n}
		if rng.Intn(2) == 0 {
			c.name, c.l, c.r = c.name+", left build", b, p
		}
		cases = append(cases, c)

		// Keyless: every pair, left-major.
		var divs []int
		for d := 1; d <= max(n, 1); d++ {
			if n%d == 0 {
				divs = append(divs, d)
			}
		}
		ln := divs[rng.Intn(len(divs))]
		rn := n / ln
		if n == 0 && rng.Intn(2) == 0 {
			ln, rn = 0, 1+rng.Intn(3)
		}
		cases = append(cases, blockCase{name: fmt.Sprintf("keyless %dx%d", ln, rn),
			l: blockRelation(rng, "l", make([]value.Value, ln)), r: blockRelation(rng, "r", make([]value.Value, rn)), keyless: true, pairs: n})
	}
	// A build chain across the build's blocks: key 7 at both ends of a
	// build side of more than a block, met by probe rows spread over a
	// longer probe side, each probe's matches crossing pair blocks.
	nb := block + 1 + rng.Intn(40)
	build := make([]value.Value, nb)
	for i := range build {
		build[i] = intKey(rng, int64(rng.Intn(50)))
		if i < 3 || i >= nb-3 || rng.Intn(3) == 0 {
			build[i] = intKey(rng, 7)
		}
	}
	probe := make([]value.Value, nb+rng.Intn(20))
	for i := range probe {
		probe[i] = intKey(rng, int64(50+rng.Intn(50)))
		if i%16 == 0 || rng.Intn(60) == 0 {
			probe[i] = intKey(rng, 7)
		}
	}
	probe[len(probe)-1] = intKey(rng, 7)
	b, p := blockRelation(rng, "b", build), blockRelation(rng, "p", probe)
	cases = append(cases, blockCase{name: "build chain", l: p, r: b, pairs: -1}, blockCase{name: "build chain, left build", l: b, r: p, pairs: -1})
	return cases
}

// TestBlocksMatchReference is the block-boundary differential of Join and
// Fold: pair counts of 0, 1, a block less one, a block, a block and one,
// and three blocks and 7; a build side of two blocks whose key chains cross
// between them; either side the build; keyless joins; NULL and NaN group
// keys; GROUP BY columns from one side (each tuple's group remembered),
// from both and none; MIN and MAX over strings and over mixed Int and
// Float, COUNT over NULLs, and SUM and AVG, whose floats must be the row
// reference's bit for bit. Rows and their order must be the string-key
// reference's.
func TestBlocksMatchReference(t *testing.T) {
	const l, r = 0, 4 // the first column of each side in the joined schema
	aggs := []AggSpec{
		{Func: Count, Col: -1}, {Func: Count, Col: l + 2}, {Func: Count, Col: r + 3}, {Func: Sum, Col: l + 3},
		{Func: Avg, Col: r + 3}, {Func: Sum, Col: r + 3}, {Func: Min, Col: l + 2}, {Func: Max, Col: r + 2},
		{Func: Min, Col: r + 3}, {Func: Max, Col: l + 3},
	}
	groupBys := [][]int{{l + 1}, {r + 1}, {r + 1, l + 1}, {l + 2, l + 1}, nil}
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("panic: %v", p)
				}
				if t.Failed() {
					t.Logf("repro: go test ./internal/storage -run 'TestBlocksMatchReference/seed=%d$' -count 1 -v", seed)
				}
			}()
			for _, c := range blockCases(rand.New(rand.NewSource(seed))) {
				lc, rc := []int{0}, []int{0}
				if c.keyless {
					lc, rc = nil, nil
				}
				want := refHashJoin(c.l, c.r, lc, rc)
				if c.pairs >= 0 && want.Len() != c.pairs || c.pairs < 0 && want.Len() < 2*block {
					t.Fatalf("%s: the reference has %d pairs; the case wants %d", c.name, want.Len(), c.pairs)
				}
				sameRelation(t, c.name+": HashJoin", HashJoin(c.l, c.r, lc, rc), want)
				for _, groupBy := range groupBys {
					what := fmt.Sprintf("%s, GROUP BY %v", c.name, groupBy)
					wantAgg := refAggregate(want, groupBy, aggs)
					sameRelation(t, what+": Aggregate", Aggregate(want, groupBy, aggs), wantAgg)
					streamed := NewAggregator(want.Schema, groupBy, aggs)
					streamed.memo = streamed.memo[:0]
					streamJoin(c.l, c.r, lc, rc, streamed)
					remembered := 0 // the tuples of the side every group column is on
					switch {
					case len(groupBy) == 0:
					case !slices.ContainsFunc(groupBy, func(c int) bool { return c >= r }):
						remembered = len(c.l.Rows)
					case !slices.ContainsFunc(groupBy, func(c int) bool { return c < r }):
						remembered = len(c.r.Rows)
					}
					if len(streamed.memo) != remembered {
						t.Fatalf("%s: %d tuples remembered, want %d", what, len(streamed.memo), remembered)
					}
					sameRelation(t, what+": streamed", streamed.Result(), wantAgg)
				}
			}
		})
	}
}

// TestReleaseKeepsOnlySmallArenas: the pool takes back an arena whose
// footprint, every buffer counted, is within maxPooledArena, and drops one
// past it: here one whose carved inputs alone pass it.
func TestReleaseKeepsOnlySmallArenas(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: what Release puts, the next Get takes
	for _, c := range []struct {
		inputs int
		kept   bool
	}{
		{100, true},
		{maxPooledArena/int(unsafe.Sizeof(Input{})) + 1, false},
	} {
		a := new(Arena)
		a.carve(c.inputs)
		if kept := a.footprint() <= maxPooledArena; kept != c.kept {
			t.Fatalf("%d inputs: footprint %d bytes, kept %v; want kept %v", c.inputs, a.footprint(), kept, c.kept)
		}
		arenas.Get() // empty this P's slot
		a.Release()
		if kept := arenas.Get().(*Arena) == a; kept != c.kept {
			t.Errorf("%d inputs (%d bytes): back from the pool %v, want %v", c.inputs, a.footprint(), kept, c.kept)
		}
	}
}
