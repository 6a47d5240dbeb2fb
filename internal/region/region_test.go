package region

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{10, 20}
	if iv.Empty() || iv.Width() != 10 {
		t.Errorf("interval basics: %v", iv)
	}
	if (Interval{5, 5}).Width() != 0 || !(Interval{5, 5}).Empty() {
		t.Error("empty interval")
	}
	if (Interval{7, 3}).Width() != 0 {
		t.Error("inverted interval width should be 0")
	}
	if !iv.Contains(Interval{12, 15}) || iv.Contains(Interval{12, 25}) {
		t.Error("Contains")
	}
	if !iv.Contains(Interval{30, 30}) {
		t.Error("every interval contains the empty interval")
	}
	if !iv.ContainsCoord(10) || iv.ContainsCoord(20) {
		t.Error("half-open semantics")
	}
	if Point(5) != (Interval{5, 6}) {
		t.Error("Point")
	}
	if iv.String() != "[10,20)" {
		t.Errorf("String: %s", iv.String())
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := Interval{0, 10}
	b := Interval{5, 15}
	got, ok := a.Intersect(b)
	if !ok || got != (Interval{5, 10}) {
		t.Errorf("Intersect: %v %v", got, ok)
	}
	if _, ok := a.Intersect(Interval{10, 20}); ok {
		t.Error("touching half-open intervals must not intersect")
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(Interval{0, 10}, Interval{0, 5})
	if b.D() != 2 || b.Empty() || b.Volume() != 50 {
		t.Errorf("box basics: %v vol=%v", b, b.Volume())
	}
	if !NewBox(Interval{0, 0}, Interval{0, 5}).Empty() {
		t.Error("box with empty dim should be empty")
	}
	c := b.Clone()
	c.Dims[0].Hi = 99
	if b.Dims[0].Hi != 10 {
		t.Error("Clone shares storage")
	}
	if b.String() != "[0,10)x[0,5)" || b.Key() != b.String() {
		t.Errorf("String: %s", b.String())
	}
}

func TestBoxContainsIntersect(t *testing.T) {
	outer := NewBox(Interval{0, 100}, Interval{0, 100})
	inner := NewBox(Interval{10, 20}, Interval{30, 40})
	if !outer.Contains(inner) || inner.Contains(outer) {
		t.Error("Contains")
	}
	if !outer.Contains(NewBox(Interval{0, 0}, Interval{5, 5})) {
		t.Error("empty box is contained everywhere")
	}
	if outer.Contains(NewBox(Interval{0, 1})) {
		t.Error("dimension mismatch must not be contained")
	}
	x, ok := outer.Intersect(NewBox(Interval{90, 110}, Interval{-5, 5}))
	if !ok || !x.Equal(NewBox(Interval{90, 100}, Interval{0, 5})) {
		t.Errorf("Intersect: %v", x)
	}
	if _, ok := outer.Intersect(NewBox(Interval{200, 300}, Interval{0, 1})); ok {
		t.Error("disjoint boxes intersect")
	}
	if !outer.Overlaps(inner) {
		t.Error("Overlaps")
	}
	if _, ok := outer.Intersect(NewBox(Interval{0, 1})); ok {
		t.Error("dim mismatch intersect")
	}
}

// TestOverlapVolumeMatchesIntersect checks OverlapVolume against building the
// intersection and taking its volume: the same verdict and the same float,
// bit for bit, on random boxes of 1 to 4 dimensions, mismatched ones and
// spans past 2⁵³.
func TestOverlapVolumeMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	randIv := func() Interval {
		lo := rng.Int63n(1<<uint(rng.Intn(62)+1)) - 1<<40
		return Interval{lo, lo + rng.Int63n(1<<uint(rng.Intn(61)+1))}
	}
	for trial := 0; trial < 20000; trial++ {
		a := Box{Dims: make([]Interval, 1+rng.Intn(4))}
		b := Box{Dims: make([]Interval, len(a.Dims))}
		if rng.Intn(50) == 0 {
			b.Dims = b.Dims[1:]
		}
		for i := range a.Dims {
			a.Dims[i] = randIv()
		}
		for i := range b.Dims {
			if b.Dims[i] = randIv(); rng.Intn(3) == 0 {
				b.Dims[i] = a.Dims[i]
			}
		}
		x, ok := a.Intersect(b)
		v, vok := a.OverlapVolume(b)
		if ok != vok || (ok && math.Float64bits(v) != math.Float64bits(x.Volume())) {
			t.Fatalf("%v ∩ %v: OverlapVolume %v, %v; Intersect %v, %v", a, b, v, vok, x.Volume(), ok)
		}
		if a.Overlaps(b) != ok {
			t.Fatalf("%v ∩ %v: Overlaps %v, Intersect %v", a, b, !ok, ok)
		}
	}
}

var overlapSink float64

// TestOverlapAllocatesNothing pins the overlap tests the histogram and the
// store's side-list scan run per box at zero allocations.
func TestOverlapAllocatesNothing(t *testing.T) {
	a := NewBox(Interval{0, 100}, Interval{0, 100}, Interval{5, 9})
	b := NewBox(Interval{50, 150}, Interval{-5, 5}, Interval{0, 6})
	if allocs := testing.AllocsPerRun(100, func() {
		v, _ := a.OverlapVolume(b)
		overlapSink += v
	}); allocs != 0 {
		t.Errorf("OverlapVolume: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if a.Overlaps(b) {
			overlapSink++
		}
	}); allocs != 0 {
		t.Errorf("Overlaps: %.0f allocations, want 0", allocs)
	}
}

func TestSubtractPaper1DExample(t *testing.T) {
	// Paper Fig. 6: domain [0,100], stored V1=[10,20), V2=[30,60).
	// Remainder of Q=[0,100] must be [0,10), [20,30), [60,100].
	q := NewBox(Interval{0, 101})
	v1 := NewBox(Interval{10, 20})
	v2 := NewBox(Interval{30, 60})
	rem := Subtract(q, []Box{v1, v2})
	if len(rem) != 3 {
		t.Fatalf("want 3 remainder pieces, got %d: %v", len(rem), rem)
	}
	want := map[string]bool{"[0,10)": true, "[20,30)": true, "[60,101)": true}
	for _, r := range rem {
		if !want[r.String()] {
			t.Errorf("unexpected piece %v", r)
		}
	}
}

func TestSubtractFullCover(t *testing.T) {
	q := NewBox(Interval{0, 10}, Interval{0, 10})
	if rem := Subtract(q, []Box{q.Clone()}); len(rem) != 0 {
		t.Errorf("full cover should leave nothing: %v", rem)
	}
	if !CoveredBy(q, []Box{NewBox(Interval{0, 10}, Interval{0, 6}), NewBox(Interval{0, 10}, Interval{5, 12})}) {
		t.Error("CoveredBy with overlapping union")
	}
	if CoveredBy(q, []Box{NewBox(Interval{0, 10}, Interval{0, 5})}) {
		t.Error("partial cover reported as full")
	}
}

func TestSubtractIgnoresMismatchedAndEmpty(t *testing.T) {
	q := NewBox(Interval{0, 10})
	rem := Subtract(q, []Box{NewBox(Interval{0, 5}, Interval{0, 5}), NewBox(Interval{3, 3})})
	if len(rem) != 1 || !rem[0].Equal(q) {
		t.Errorf("mismatched/empty covered boxes must be ignored: %v", rem)
	}
	if Subtract(NewBox(Interval{5, 5}), nil) != nil {
		t.Error("empty query box has empty remainder")
	}
}

// TestSubtractProperties checks, for random 2-d configurations, that the
// remainder pieces are pairwise disjoint, lie inside q, avoid every covered
// box, and together with the covered region account for q's full volume.
func TestSubtractProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randIv := func(span int64) Interval {
		lo := rng.Int63n(span)
		hi := lo + rng.Int63n(span-lo) + 1
		return Interval{lo, hi}
	}
	for trial := 0; trial < 200; trial++ {
		q := NewBox(randIv(40), randIv(40))
		var covered []Box
		for i := 0; i < rng.Intn(5); i++ {
			covered = append(covered, NewBox(randIv(40), randIv(40)))
		}
		rem := Subtract(q, covered)
		// Disjointness and containment.
		for i, a := range rem {
			if !q.Contains(a) {
				t.Fatalf("trial %d: piece %v outside q %v", trial, a, q)
			}
			for _, c := range covered {
				if a.Overlaps(c) {
					t.Fatalf("trial %d: piece %v overlaps covered %v", trial, a, c)
				}
			}
			for j := i + 1; j < len(rem); j++ {
				if a.Overlaps(rem[j]) {
					t.Fatalf("trial %d: pieces %v and %v overlap", trial, a, rem[j])
				}
			}
		}
		// Volume conservation via point sampling on the grid.
		for s := 0; s < 50; s++ {
			x := q.Dims[0].Lo + rng.Int63n(q.Dims[0].Width())
			y := q.Dims[1].Lo + rng.Int63n(q.Dims[1].Width())
			pt := NewBox(Point(x), Point(y))
			inCovered := false
			for _, c := range covered {
				if c.Contains(pt) {
					inCovered = true
					break
				}
			}
			inRem := false
			for _, r := range rem {
				if r.Contains(pt) {
					inRem = true
					break
				}
			}
			if inCovered == inRem && !(inCovered && !inRem) {
				if inCovered && inRem {
					t.Fatalf("trial %d: point %v both covered and in remainder", trial, pt)
				}
				if !inCovered && !inRem {
					t.Fatalf("trial %d: point %v in neither covered nor remainder", trial, pt)
				}
			}
		}
	}
}

func TestSeparatorSets(t *testing.T) {
	boxes := []Box{
		NewBox(Interval{50, 70}, Interval{0, 10}),
		NewBox(Interval{30, 40}, Interval{20, 50}),
	}
	sets := SeparatorSets(boxes)
	if len(sets) != 2 {
		t.Fatalf("want 2 sets, got %d", len(sets))
	}
	want0 := []int64{30, 40, 50, 70}
	for i, v := range want0 {
		if sets[0][i] != v {
			t.Fatalf("S1 = %v, want %v", sets[0], want0)
		}
	}
	want1 := []int64{0, 10, 20, 50}
	for i, v := range want1 {
		if sets[1][i] != v {
			t.Fatalf("S2 = %v, want %v", sets[1], want1)
		}
	}
	if SeparatorSets(nil) != nil {
		t.Error("empty input should give nil")
	}
}

func TestBoundingBox(t *testing.T) {
	b, ok := BoundingBox([]Box{
		NewBox(Interval{5, 10}, Interval{0, 3}),
		NewBox(Interval{0, 7}, Interval{2, 9}),
	})
	if !ok || !b.Equal(NewBox(Interval{0, 10}, Interval{0, 9})) {
		t.Errorf("BoundingBox: %v %v", b, ok)
	}
	if _, ok := BoundingBox(nil); ok {
		t.Error("BoundingBox of nothing")
	}
	if _, ok := BoundingBox([]Box{NewBox(Interval{0, 1}), NewBox(Interval{0, 1}, Interval{0, 1})}); ok {
		t.Error("BoundingBox dim mismatch")
	}
}

func TestSubtractQuickVolume(t *testing.T) {
	// 1-d property: width(q) = width(rem) + width(q ∩ union(covered)).
	f := func(qlo, qw, clo, cw uint8) bool {
		q := NewBox(Interval{int64(qlo), int64(qlo) + int64(qw%50) + 1})
		c := NewBox(Interval{int64(clo), int64(clo) + int64(cw%50) + 1})
		rem := Subtract(q, []Box{c})
		var remW int64
		for _, r := range rem {
			remW += r.Dims[0].Width()
		}
		x, ok := q.Intersect(c)
		var xw int64
		if ok {
			xw = x.Dims[0].Width()
		}
		return remW+xw == q.Dims[0].Width()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSubtract3DProperties extends the coverage/disjointness invariants to
// three dimensions (the TPC-H tables expose up to six axes; three suffices
// to exercise the recursive splitting).
func TestSubtract3DProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randIv := func(span int64) Interval {
		lo := rng.Int63n(span)
		return Interval{Lo: lo, Hi: lo + rng.Int63n(span-lo) + 1}
	}
	for trial := 0; trial < 100; trial++ {
		q := NewBox(randIv(20), randIv(20), randIv(20))
		var covered []Box
		for i := 0; i < rng.Intn(4); i++ {
			covered = append(covered, NewBox(randIv(20), randIv(20), randIv(20)))
		}
		rem := Subtract(q, covered)
		// Volume conservation: vol(q) = vol(rem) + vol(q ∩ union(covered)),
		// computed by grid sampling.
		for s := 0; s < 60; s++ {
			pt := NewBox(
				Point(q.Dims[0].Lo+rng.Int63n(q.Dims[0].Width())),
				Point(q.Dims[1].Lo+rng.Int63n(q.Dims[1].Width())),
				Point(q.Dims[2].Lo+rng.Int63n(q.Dims[2].Width())),
			)
			inCov := false
			for _, c := range covered {
				if c.Contains(pt) {
					inCov = true
					break
				}
			}
			hits := 0
			for _, r := range rem {
				if r.Contains(pt) {
					hits++
				}
			}
			if inCov && hits != 0 {
				t.Fatalf("trial %d: covered point in remainder", trial)
			}
			if !inCov && hits != 1 {
				t.Fatalf("trial %d: uncovered point hit %d remainder pieces", trial, hits)
			}
		}
	}
}

func TestVolumeMatchesSubtractPieces(t *testing.T) {
	q := NewBox(Interval{Lo: 0, Hi: 10}, Interval{Lo: 0, Hi: 10})
	c := NewBox(Interval{Lo: 2, Hi: 5}, Interval{Lo: 3, Hi: 8})
	rem := Subtract(q, []Box{c})
	var vol float64
	for _, r := range rem {
		vol += r.Volume()
	}
	if want := q.Volume() - c.Volume(); vol != want {
		t.Errorf("remainder volume %v, want %v", vol, want)
	}
}

func TestSubtractBoundedCapIsConservative(t *testing.T) {
	// A staircase of small boxes against a wide query forces many pieces;
	// with a tiny cap the decomposition must stop refining but still
	// over-cover the true remainder (every truly uncovered point stays in
	// some piece) and stay inside q.
	q := NewBox(Interval{0, 40}, Interval{0, 40})
	var covered []Box
	for i := int64(0); i < 20; i++ {
		covered = append(covered, NewBox(Interval{2 * i, 2*i + 1}, Interval{2 * i, 2*i + 1}))
	}
	pieces, truncated := SubtractBounded(q, covered, 4)
	if !truncated {
		t.Fatal("expected truncation with cap 4")
	}
	if len(pieces) == 0 || len(pieces) > 4 {
		t.Fatalf("pieces=%d, want 1..4", len(pieces))
	}
	exact, exTrunc := SubtractBounded(q, covered, 0)
	if exTrunc {
		t.Fatal("unbounded subtraction reported truncation")
	}
	// Over-fetch, never under-cover: every exact remainder piece must be
	// covered by the truncated piece set, and every truncated piece stays
	// inside q.
	for _, e := range exact {
		if !CoveredBy(e, pieces) {
			t.Fatalf("exact remainder piece %v not covered by truncated pieces", e)
		}
	}
	for _, p := range pieces {
		if !q.Contains(p) {
			t.Fatalf("piece %v escapes q", p)
		}
	}
}

func TestSubtractBoundedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randIv := func(span int64) Interval {
		lo := rng.Int63n(span)
		hi := lo + rng.Int63n(span-lo) + 1
		return Interval{lo, hi}
	}
	for trial := 0; trial < 100; trial++ {
		q := NewBox(randIv(60), randIv(60))
		var covered []Box
		for i := 0; i < 2+rng.Intn(8); i++ {
			covered = append(covered, NewBox(randIv(60), randIv(60)))
		}
		a, at := SubtractBounded(q, covered, DefaultMaxPieces)
		b, bt := SubtractBounded(q, covered, DefaultMaxPieces)
		if at != bt || len(a) != len(b) {
			t.Fatalf("trial %d: nondeterministic result", trial)
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("trial %d: piece %d differs: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestSubtractLargestOverlapFirstShrinksPieceCount(t *testing.T) {
	// One big box covering most of q plus slivers: processing the big box
	// first keeps intermediate piece counts low; the result must still be
	// the exact remainder regardless of the input order.
	q := NewBox(Interval{0, 100}, Interval{0, 100})
	big := NewBox(Interval{0, 90}, Interval{0, 100})
	var covered []Box
	for i := int64(0); i < 10; i++ {
		covered = append(covered, NewBox(Interval{90, 100}, Interval{10 * i, 10*i + 5}))
	}
	covered = append(covered, big) // big box last on purpose
	rem, truncated := SubtractBounded(q, covered, DefaultMaxPieces)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	// Exact remainder is the right strip minus the slivers.
	want := []Box{}
	for i := int64(0); i < 10; i++ {
		want = append(want, NewBox(Interval{90, 100}, Interval{10*i + 5, 10*i + 10}))
	}
	if !CoveredBy(q, append(append([]Box{}, covered...), rem...)) {
		t.Fatal("remainder plus covered does not cover q")
	}
	for _, w := range want {
		if !CoveredBy(w, rem) {
			t.Fatalf("uncovered region %v missing from remainder", w)
		}
	}
	for _, r := range rem {
		for _, c := range covered {
			if r.Overlaps(c) {
				t.Fatalf("remainder piece %v overlaps covered %v", r, c)
			}
		}
	}
}
