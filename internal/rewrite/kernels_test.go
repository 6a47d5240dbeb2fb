package rewrite

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"payless/internal/region"
	"payless/internal/stats"
)

// estimateFirstRemainders is Remainders as it was before pruning rule 1 ran
// ahead of the estimator, kept as the reference: every enumerated box is a
// fresh box, priced, then tested against both rules.
func estimateFirstRemainders(q region.Box, covered []region.Box, cfg Config, est Estimator) Plan {
	if cfg.TuplesPerTransaction <= 0 {
		cfg.TuplesPerTransaction = 100
	}
	if cfg.MaxEnumeration <= 0 {
		cfg.MaxEnumeration = defaultMaxEnumeration
	}
	elems := region.Subtract(q, covered)
	if len(elems) == 0 {
		return Plan{}
	}
	plan := Plan{Stats: Stats{Elementary: len(elems)}}
	if len(elems) == 1 && elems[0].Equal(q) {
		rows := est(q)
		plan.Boxes = []region.Box{q}
		plan.EstRows = rows
		plan.Transactions = Price(rows, cfg.TuplesPerTransaction)
		plan.Stats.Enumerated = 1
		plan.Stats.Kept = 1
		return plan
	}
	elemPrice := make([]int64, len(elems))
	elemRows := make([]float64, len(elems))
	for i, e := range elems {
		elemRows[i] = est(e)
		elemPrice[i] = Price(elemRows[i], cfg.TuplesPerTransaction)
	}
	var cands []candidate
	if extents, ok := extentsOf(q, elems, cfg); ok {
		dims := make([]region.Interval, q.D())
		var rec func(i int)
		rec = func(i int) {
			if i == q.D() {
				plan.Stats.Enumerated++
				if c, ok := estimateFirstCandidate(region.NewBox(dims...), elems, elemPrice, cfg, est); ok {
					plan.Stats.Kept++
					cands = append(cands, c)
				}
				return
			}
			for _, e := range extents[i] {
				dims[i] = e
				rec(i + 1)
			}
		}
		rec(0)
	}
	for i, e := range elems {
		boxes := validize(e, cfg)
		var rows float64
		var trans int64
		if len(boxes) == 1 && boxes[0].Equal(e) {
			rows, trans = elemRows[i], elemPrice[i]
		} else {
			for _, b := range boxes {
				r := est(b)
				rows += r
				trans += Price(r, cfg.TuplesPerTransaction)
			}
		}
		cands = append(cands, candidate{boxes: boxes, rows: rows, trans: trans, covers: []int{i}})
	}
	for _, c := range bestCover(len(elems), cands) {
		plan.Boxes = append(plan.Boxes, c.boxes...)
		plan.Transactions += c.trans
		plan.EstRows += c.rows
	}
	return plan
}

// estimateFirstCandidate is the previous buildCandidate: price the box, then
// apply rule 1 through a bounding box of the covered elementary boxes.
func estimateFirstCandidate(b region.Box, elems []region.Box, elemPrice []int64, cfg Config, est Estimator) (candidate, bool) {
	var covers []int
	var coveredSum int64
	for i, e := range elems {
		if b.Contains(e) {
			covers = append(covers, i)
			coveredSum += elemPrice[i]
		}
	}
	if len(covers) == 0 {
		return candidate{}, false
	}
	rows := est(b)
	trans := Price(rows, cfg.TuplesPerTransaction)
	if cfg.DisablePruning {
		return candidate{boxes: []region.Box{b}, rows: rows, trans: trans, covers: covers}, true
	}
	sub := make([]region.Box, len(covers))
	for i, j := range covers {
		sub[i] = elems[j]
	}
	mbb, ok := region.BoundingBox(sub)
	if !ok || !mbb.Equal(b) {
		return candidate{}, false
	}
	if trans >= coveredSum {
		return candidate{}, false
	}
	return candidate{boxes: []region.Box{b}, rows: rows, trans: trans, covers: covers}, true
}

// instance is one Remainders input: a query box over a table's space, the
// stored boxes, the rewrite configuration and a learned estimator.
type instance struct {
	q       region.Box
	covered []region.Box
	cfg     Config
	est     Estimator
}

// randomInstance draws a 2- or 3-d query over a space whose second axis is
// categorical with 6 values, some stored boxes inside and around it, and a
// feedback histogram trained on random observations.
func randomInstance(rng *rand.Rand) instance {
	d := 2 + rng.Intn(2)
	full := region.NewBox(region.Interval{Lo: 0, Hi: 1000}, region.Interval{Lo: 0, Hi: 6}, region.Interval{Lo: 0, Hi: 400})
	full.Dims = full.Dims[:d]
	kinds := []DimKind{Numeric, Categorical, Numeric}[:d]
	randIn := func(iv region.Interval) region.Interval {
		lo := iv.Lo + rng.Int63n(iv.Width())
		return region.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(iv.Hi-lo)}
	}
	randBox := func() region.Box {
		b := full.Clone()
		for i := range b.Dims {
			b.Dims[i] = randIn(full.Dims[i])
		}
		return b
	}
	q := randBox()
	if rng.Intn(2) == 0 {
		q.Dims[1] = full.Dims[1] // the whole categorical domain, as most calls
	}
	var covered []region.Box
	for i := 0; i < 1+rng.Intn(5); i++ {
		covered = append(covered, randBox())
	}
	st := stats.New()
	st.Register("T", full, 20000+rng.Int63n(200000))
	for i := 0; i < rng.Intn(12); i++ {
		st.Feedback("T", randBox(), rng.Int63n(5000))
	}
	return instance{
		q:       q,
		covered: covered,
		cfg:     Config{TuplesPerTransaction: 100, DimKinds: kinds, Full: full, DisablePruning: rng.Intn(4) == 0},
		est:     func(b region.Box) float64 { return st.Estimate("T", b) },
	}
}

// TestRemaindersMatchEstimateFirst checks the rule-1-first Algorithm 1
// against the estimate-first reference on seeded instances with categorical
// dimensions, with and without pruning: the same plan, bit for bit, and the
// same enumeration counts.
func TestRemaindersMatchEstimateFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	enumerated, pruned := 0, 0
	for trial := 0; trial < 400; trial++ {
		in := randomInstance(rng)
		want := estimateFirstRemainders(in.q, in.covered, in.cfg, in.est)
		got := Remainders(in.q, in.covered, in.cfg, in.est)
		if err := samePlan(got, want); err != nil {
			t.Fatalf("trial %d (q %v, covered %v, pruning off %v): %v", trial, in.q, in.covered, in.cfg.DisablePruning, err)
		}
		enumerated += got.Stats.Enumerated
		pruned += got.Stats.Enumerated - got.Stats.Kept
	}
	t.Logf("%d boxes enumerated, %d pruned", enumerated, pruned)
	if pruned == 0 || enumerated < 10000 {
		t.Errorf("%d boxes enumerated, %d pruned: the instances test nothing", enumerated, pruned)
	}
}

func samePlan(got, want Plan) error {
	if got.Stats != want.Stats {
		return fmt.Errorf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	if got.Transactions != want.Transactions || math.Float64bits(got.EstRows) != math.Float64bits(want.EstRows) {
		return fmt.Errorf("%d transactions for %v rows, want %d for %v", got.Transactions, got.EstRows, want.Transactions, want.EstRows)
	}
	if len(got.Boxes) != len(want.Boxes) {
		return fmt.Errorf("boxes %v, want %v", got.Boxes, want.Boxes)
	}
	for i := range got.Boxes {
		if !got.Boxes[i].Equal(want.Boxes[i]) {
			return fmt.Errorf("boxes %v, want %v", got.Boxes, want.Boxes)
		}
	}
	return nil
}

// scatteredInstance is a 2-d query with k small stored boxes scattered
// inside it: Algorithm 1 enumerates O(k⁴) boxes and keeps a few per
// elementary box.
func scatteredInstance(k int) (region.Box, []region.Box) {
	q := region.NewBox(region.Interval{Lo: 0, Hi: 1000}, region.Interval{Lo: 0, Hi: 400})
	var covered []region.Box
	for i := 0; i < k; i++ {
		x, y := int64(50+i*900/k), int64(30+(i*7%k)*350/k)
		covered = append(covered, region.NewBox(region.Interval{Lo: x, Hi: x + 40}, region.Interval{Lo: y, Hi: y + 25}))
	}
	return q, covered
}

// TestRemaindersAllocatePerKeptCandidate is the allocation gate on Algorithm
// 1: enumerated boxes are tested in scratch buffers, so a Remainders call
// allocates a constant, a few objects per elementary box (the subtraction
// and the elementary candidates) and three per kept candidate — never per
// enumerated box. Estimate-first, 8 stored boxes cost 39 076 allocations for
// 23 409 enumerated boxes.
func TestRemaindersAllocatePerKeptCandidate(t *testing.T) {
	est := func(b region.Box) float64 { return b.Volume() / 50 }
	for _, k := range []int{1, 2, 4, 8} {
		q, covered := scatteredInstance(k)
		cfg := Config{TuplesPerTransaction: 100, Full: q}
		var p Plan
		allocs := testing.AllocsPerRun(5, func() { p = Remainders(q, covered, cfg, est) })
		limit := 64 + 16*p.Stats.Elementary + 3*p.Stats.Kept
		t.Logf("%d stored boxes: %d elementary, %d enumerated, %d kept: %.0f allocations (limit %d)",
			k, p.Stats.Elementary, p.Stats.Enumerated, p.Stats.Kept, allocs, limit)
		if allocs > float64(limit) {
			t.Errorf("%d stored boxes: %.0f allocations for %d enumerated, %d kept; want at most %d",
				k, allocs, p.Stats.Enumerated, p.Stats.Kept, limit)
		}
	}
}

// BenchmarkRemainders runs Algorithm 1 with the cover on scattered stored
// boxes, priced by a feedback histogram of 1 to 8 192 buckets:
//
//	go test ./internal/rewrite/ -run '^$' -bench Remainders -benchmem
func BenchmarkRemainders(b *testing.B) {
	for _, k := range []int{2, 8} {
		q, covered := scatteredInstance(k)
		cfg := Config{TuplesPerTransaction: 100, Full: q}
		for _, feedback := range []int{0, 200} {
			st := trainedStore(q, feedback)
			est := func(b region.Box) float64 { return st.Estimate("T", b) }
			b.Run(fmt.Sprintf("stored=%d/buckets=%d", k, st.BucketCount("T")), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Remainders(q, covered, cfg, est)
				}
			})
		}
	}
}

// trainedStore is a feedback histogram over full after n random feedbacks.
func trainedStore(full region.Box, n int) *stats.Store {
	rng := rand.New(rand.NewSource(3))
	st := stats.New()
	st.Register("T", full, 1_000_000)
	for i := 0; i < n; i++ {
		b := full.Clone()
		for d, iv := range full.Dims {
			lo := iv.Lo + rng.Int63n(iv.Width())
			b.Dims[d] = region.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(iv.Hi-lo)}
		}
		st.Feedback("T", b, rng.Int63n(10000))
	}
	return st
}
