package rewrite

import (
	"math/rand"
	"testing"

	"payless/internal/region"
)

// segmentEstimator builds an exact 1-d row counter from density segments:
// seg[i] covers [bounds[i], bounds[i+1]) holding counts[i] rows uniformly.
func segmentEstimator(bounds []int64, counts []float64) Estimator {
	return func(b region.Box) float64 {
		iv := b.Dims[0]
		var total float64
		for i := 0; i < len(counts); i++ {
			seg := region.Interval{Lo: bounds[i], Hi: bounds[i+1]}
			x, ok := seg.Intersect(iv)
			if !ok {
				continue
			}
			total += counts[i] * float64(x.Width()) / float64(seg.Width())
		}
		return total
	}
}

// TestPaperFig6Rem2 reproduces the paper's 1-d worked example: the optimal
// remainder set overlaps stored query V1 and costs 3 transactions, beating
// the straight decomposition's 4.
func TestPaperFig6Rem2(t *testing.T) {
	q := region.NewBox(region.Interval{Lo: 0, Hi: 101}) // A in [0,100]
	v1 := region.NewBox(region.Interval{Lo: 10, Hi: 20})
	v2 := region.NewBox(region.Interval{Lo: 30, Hi: 60})
	est := segmentEstimator(
		[]int64{0, 10, 20, 30, 60, 101},
		[]float64{21, 28, 34, 91, 123},
	)
	cfg := Config{TuplesPerTransaction: 100, Full: q}
	plan := Remainders(q, []region.Box{v1, v2}, cfg, est)

	if plan.Transactions != 3 {
		t.Fatalf("transactions = %d, want 3 (paper Rem2); boxes: %v", plan.Transactions, plan.Boxes)
	}
	if len(plan.Boxes) != 2 {
		t.Fatalf("want 2 remainder queries, got %v", plan.Boxes)
	}
	// One box must be [0,30) (overlapping V1), the other [60,101).
	found030, found60 := false, false
	for _, b := range plan.Boxes {
		switch b.String() {
		case "[0,30)":
			found030 = true
		case "[60,101)":
			found60 = true
		}
	}
	if !found030 || !found60 {
		t.Errorf("boxes: %v, want [0,30) and [60,101)", plan.Boxes)
	}
	if plan.Stats.Elementary != 3 {
		t.Errorf("elementary boxes: %d", plan.Stats.Elementary)
	}
}

// TestPaperFig6Rem1WithoutEnumeration checks the straight decomposition
// (elementary boxes only) costs 4 transactions, as the paper's Rem1.
func TestPaperFig6Rem1WithoutEnumeration(t *testing.T) {
	q := region.NewBox(region.Interval{Lo: 0, Hi: 101})
	v1 := region.NewBox(region.Interval{Lo: 10, Hi: 20})
	v2 := region.NewBox(region.Interval{Lo: 30, Hi: 60})
	est := segmentEstimator(
		[]int64{0, 10, 20, 30, 60, 101},
		[]float64{21, 28, 34, 91, 123},
	)
	// MaxEnumeration=1 forces the fallback to elementary singletons.
	cfg := Config{TuplesPerTransaction: 100, Full: q, MaxEnumeration: 1}
	plan := Remainders(q, []region.Box{v1, v2}, cfg, est)
	if plan.Transactions != 4 {
		t.Fatalf("straight decomposition = %d transactions, want 4 (Rem1)", plan.Transactions)
	}
	if len(plan.Boxes) != 3 {
		t.Errorf("want the 3 elementary remainder queries, got %v", plan.Boxes)
	}
}

func TestFullyCovered(t *testing.T) {
	q := region.NewBox(region.Interval{Lo: 0, Hi: 10})
	plan := Remainders(q, []region.Box{q.Clone()}, Config{TuplesPerTransaction: 100, Full: q}, func(region.Box) float64 { return 1 })
	if len(plan.Boxes) != 0 || plan.Transactions != 0 {
		t.Errorf("covered call must be free: %+v", plan)
	}
}

func TestNoCoverageFastPath(t *testing.T) {
	q := region.NewBox(region.Interval{Lo: 0, Hi: 100})
	plan := Remainders(q, nil, Config{TuplesPerTransaction: 100, Full: q}, func(b region.Box) float64 { return 250 })
	if len(plan.Boxes) != 1 || !plan.Boxes[0].Equal(q) {
		t.Fatalf("uncovered call should be q itself: %v", plan.Boxes)
	}
	if plan.Transactions != 3 {
		t.Errorf("ceil(250/100) = %d, want 3", plan.Transactions)
	}
	if plan.Stats.Enumerated != 1 || plan.Stats.Kept != 1 {
		t.Errorf("fast path stats: %+v", plan.Stats)
	}
}

func TestZeroEstimateIsFree(t *testing.T) {
	q := region.NewBox(region.Interval{Lo: 0, Hi: 100})
	plan := Remainders(q, nil, Config{TuplesPerTransaction: 100, Full: q}, func(region.Box) float64 { return 0 })
	if plan.Transactions != 0 {
		t.Errorf("empty result costs nothing: %d", plan.Transactions)
	}
}

func TestPruningAblationCounters(t *testing.T) {
	// 2-d example resembling Fig. 7: several stored boxes carve the space.
	q := region.NewBox(region.Interval{Lo: 0, Hi: 100}, region.Interval{Lo: 0, Hi: 60})
	covered := []region.Box{
		region.NewBox(region.Interval{Lo: 0, Hi: 40}, region.Interval{Lo: 0, Hi: 30}),
		region.NewBox(region.Interval{Lo: 60, Hi: 100}, region.Interval{Lo: 40, Hi: 60}),
		region.NewBox(region.Interval{Lo: 20, Hi: 60}, region.Interval{Lo: 45, Hi: 55}),
	}
	est := func(b region.Box) float64 { return b.Volume() / 10 }
	on := Remainders(q, covered, Config{TuplesPerTransaction: 100, Full: q}, est)
	off := Remainders(q, covered, Config{TuplesPerTransaction: 100, Full: q, DisablePruning: true}, est)
	if on.Stats.Enumerated != off.Stats.Enumerated {
		t.Errorf("enumeration count must not depend on pruning: %d vs %d", on.Stats.Enumerated, off.Stats.Enumerated)
	}
	if on.Stats.Kept >= off.Stats.Kept {
		t.Errorf("pruning must reduce kept boxes: on=%d off=%d", on.Stats.Kept, off.Stats.Kept)
	}
	// Boxes that cover no elementary box are dropped regardless of pruning,
	// so Kept may be below Enumerated even with pruning disabled.
	if off.Stats.Kept > off.Stats.Enumerated {
		t.Errorf("kept=%d exceeds enumerated=%d", off.Stats.Kept, off.Stats.Enumerated)
	}
	// Both must produce complete covers with comparable costs.
	if on.Transactions > off.Transactions {
		t.Errorf("pruning must not worsen the plan: %d vs %d", on.Transactions, off.Transactions)
	}
}

func TestCategoricalDims(t *testing.T) {
	// Fig. 8: A2 categorical with 6 values; stored boxes leave region that
	// would need a multi-value categorical span — invalid, so the rewriter
	// must use single values or the whole domain.
	full := region.NewBox(region.Interval{Lo: 0, Hi: 100}, region.Interval{Lo: 0, Hi: 6})
	q := region.NewBox(region.Interval{Lo: 30, Hi: 80}, region.Interval{Lo: 0, Hi: 6})
	covered := []region.Box{
		region.NewBox(region.Interval{Lo: 30, Hi: 50}, region.Point(0)),
		region.NewBox(region.Interval{Lo: 30, Hi: 50}, region.Point(1)),
	}
	est := func(b region.Box) float64 { return b.Volume() }
	cfg := Config{TuplesPerTransaction: 100, Full: full, DimKinds: []DimKind{Numeric, Categorical}}
	plan := Remainders(q, covered, cfg, est)
	if len(plan.Boxes) == 0 {
		t.Fatal("expected remainder queries")
	}
	for _, b := range plan.Boxes {
		w := b.Dims[1].Width()
		if w != 1 && w != 6 {
			t.Errorf("categorical extent must be a single value or the whole domain: %v", b)
		}
	}
	// Coverage check: the union of chosen boxes covers every elementary box
	// (a decomposed categorical elem is covered jointly, not by containment).
	elems := region.Subtract(q, covered)
	for _, e := range elems {
		if !region.CoveredBy(e, plan.Boxes) {
			t.Errorf("elementary box %v not covered by %v", e, plan.Boxes)
		}
	}
}

// TestCoverProperty: for random 2-d configurations, the chosen remainder
// boxes always cover every elementary box, and the plan never costs more
// than the straight decomposition.
func TestCoverProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	est := func(b region.Box) float64 { return b.Volume() / 3 }
	for trial := 0; trial < 100; trial++ {
		q := region.NewBox(region.Interval{Lo: 0, Hi: 60}, region.Interval{Lo: 0, Hi: 60})
		var covered []region.Box
		for i := 0; i < 1+rng.Intn(4); i++ {
			lo1, lo2 := rng.Int63n(50), rng.Int63n(50)
			covered = append(covered, region.NewBox(
				region.Interval{Lo: lo1, Hi: lo1 + rng.Int63n(30) + 1},
				region.Interval{Lo: lo2, Hi: lo2 + rng.Int63n(30) + 1},
			))
		}
		cfg := Config{TuplesPerTransaction: 10, Full: q}
		plan := Remainders(q, covered, cfg, est)
		elems := region.Subtract(q, covered)
		if len(elems) == 0 {
			if len(plan.Boxes) != 0 {
				t.Fatalf("trial %d: covered query got boxes %v", trial, plan.Boxes)
			}
			continue
		}
		for _, e := range elems {
			found := false
			for _, b := range plan.Boxes {
				if b.Contains(e) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: elem %v uncovered by %v", trial, e, plan.Boxes)
			}
		}
		var straight int64
		for _, e := range elems {
			straight += Price(est(e), cfg.TuplesPerTransaction)
		}
		if plan.Transactions > straight {
			t.Fatalf("trial %d: plan %d transactions worse than straight %d", trial, plan.Transactions, straight)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	q := region.NewBox(region.Interval{Lo: 0, Hi: 10})
	// Zero config values must default (t=100, enumeration cap).
	plan := Remainders(q, nil, Config{Full: q}, func(region.Box) float64 { return 100 })
	if plan.Transactions != 1 {
		t.Errorf("default t=100: %d", plan.Transactions)
	}
}

// TestExactCoverNeverWorseThanGreedy: on random small instances the exact
// DP's total price is at most the greedy approximation's.
func TestExactCoverNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(8)
		var cands []candidate
		// Singletons guarantee feasibility.
		for e := 0; e < n; e++ {
			cands = append(cands, candidate{trans: int64(1 + rng.Intn(3)), covers: []int{e}})
		}
		// Random multi-cover candidates.
		for k := 0; k < 1+rng.Intn(6); k++ {
			var covers []int
			for e := 0; e < n; e++ {
				if rng.Intn(2) == 0 {
					covers = append(covers, e)
				}
			}
			if len(covers) == 0 {
				continue
			}
			cands = append(cands, candidate{trans: int64(1 + rng.Intn(4)), covers: covers})
		}
		exact, ok := exactCover(n, cands)
		if !ok {
			t.Fatalf("trial %d: exact cover infeasible", trial)
		}
		greedy := setCover(n, cands)
		sum := func(cs []candidate) int64 {
			var s int64
			for _, c := range cs {
				s += c.trans
			}
			return s
		}
		if sum(exact) > sum(greedy) {
			t.Fatalf("trial %d: exact %d worse than greedy %d", trial, sum(exact), sum(greedy))
		}
		// Exact result must cover everything.
		covered := make(map[int]bool)
		for _, c := range exact {
			for _, e := range c.covers {
				covered[e] = true
			}
		}
		if len(covered) != n {
			t.Fatalf("trial %d: exact cover misses elements (%d of %d)", trial, len(covered), n)
		}
	}
}

// TestExactCoverBeatsGreedyOnKnownInstance: the classic instance where
// greedy is suboptimal.
func TestExactCoverBeatsGreedyOnKnownInstance(t *testing.T) {
	// Elements {0,1,2,3}; greedy picks the big cheap-looking set first and
	// pays 1+2+2 = 5; optimal is 2+2 = 4.
	cands := []candidate{
		{trans: 3, covers: []int{0, 1, 2, 3}}, // ratio 0.75
		{trans: 2, covers: []int{0, 1}},       // ratio 1.0
		{trans: 2, covers: []int{2, 3}},       // ratio 1.0
	}
	exact, ok := exactCover(4, cands)
	if !ok {
		t.Fatal("infeasible")
	}
	var total int64
	for _, c := range exact {
		total += c.trans
	}
	if total != 3 {
		t.Errorf("optimal here is the single set at 3, got %d", total)
	}
	// A sharper instance: singleton prices make the greedy ratio misleading.
	cands2 := []candidate{
		{trans: 5, covers: []int{0, 1, 2}, rows: 500}, // greedy ratio 1.67
		{trans: 2, covers: []int{0, 1}, rows: 150},
		{trans: 2, covers: []int{2}, rows: 150},
	}
	exact2, _ := exactCover(3, cands2)
	var total2 int64
	for _, c := range exact2 {
		total2 += c.trans
	}
	if total2 != 4 {
		t.Errorf("optimal 4 (2+2), got %d", total2)
	}
}
