package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"payless/internal/region"
)

// intersectEstimate is the previous Store.Estimate, kept as the reference:
// it builds each bucket's intersection box and takes its volume.
func (s *Store) intersectEstimate(table string, b region.Box) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok || b.Empty() {
		return 0
	}
	var est float64
	for _, bk := range t.buckets {
		x, ok := bk.box.Intersect(b)
		if !ok {
			continue
		}
		bv := bk.box.Volume()
		if bv <= 0 {
			continue
		}
		est += bk.count * (x.Volume() / bv)
	}
	return est
}

// intersectFeedback is the previous Store.Feedback, kept as the reference.
func (s *Store) intersectFeedback(table string, b region.Box, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok || b.Empty() {
		return
	}
	canSplit := len(t.buckets) < s.maxBuckets
	var next []bucket
	var inside []int
	for _, bk := range t.buckets {
		x, overlaps := bk.box.Intersect(b)
		if !overlaps {
			next = append(next, bk)
			continue
		}
		if x.Equal(bk.box) {
			inside = append(inside, len(next))
			next = append(next, bk)
			continue
		}
		if !canSplit {
			next = append(next, bk)
			continue
		}
		bv := bk.box.Volume()
		frac := 0.0
		if bv > 0 {
			frac = x.Volume() / bv
		}
		inside = append(inside, len(next))
		next = append(next, bucket{box: x, count: bk.count * frac})
		for _, rem := range region.Subtract(bk.box, []region.Box{x}) {
			remFrac := 0.0
			if bv > 0 {
				remFrac = rem.Volume() / bv
			}
			next = append(next, bucket{box: rem, count: bk.count * remFrac})
		}
	}
	var sum float64
	for _, i := range inside {
		sum += next[i].count
	}
	switch {
	case len(inside) == 0:
	case sum <= 0:
		var vol float64
		for _, i := range inside {
			vol += next[i].box.Volume()
		}
		for _, i := range inside {
			if vol > 0 {
				next[i].count = float64(n) * next[i].box.Volume() / vol
			} else {
				next[i].count = float64(n) / float64(len(inside))
			}
		}
	default:
		scale := float64(n) / sum
		for _, i := range inside {
			next[i].count *= scale
		}
	}
	t.buckets = next
}

// randomBox draws a non-empty box inside full.
func randomBox(rng *rand.Rand, full region.Box) region.Box {
	b := full.Clone()
	for d, iv := range full.Dims {
		lo := iv.Lo + rng.Int63n(iv.Width())
		b.Dims[d] = region.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(iv.Hi-lo)}
	}
	return b
}

// TestEstimateMatchesIntersectVolume drives two stores through the same
// random feedback — one by Feedback, one by the reference — and requires
// bit-identical buckets and bit-identical estimates of random boxes, wider
// ones too, from the first feedback to past the bucket cap.
func TestEstimateMatchesIntersectVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 12; trial++ {
		d := 1 + trial%3
		full := region.Box{Dims: make([]region.Interval, d)}
		for i := range full.Dims {
			full.Dims[i] = region.Interval{Lo: -rng.Int63n(1 << 20), Hi: 1 + rng.Int63n(1<<30)}
		}
		got, want := New(), New()
		got.maxBuckets, want.maxBuckets = 512, 512
		card := rng.Int63n(1 << 24)
		got.Register("T", full, card)
		want.Register("T", full, card)
		for step := 0; step < 300; step++ {
			fb, n := randomBox(rng, full), rng.Int63n(1<<16)
			if rng.Intn(8) == 0 {
				n = 0
			}
			got.Feedback("T", fb, n)
			want.intersectFeedback("T", fb, n)
			if err := sameBuckets(got.tables["T"].buckets, want.tables["T"].buckets); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for probe := 0; probe < 8; probe++ {
				q := randomBox(rng, full)
				if probe == 0 {
					q.Dims[0].Lo -= 1 << 40 // reaches outside the table's space
				}
				g, w := got.Estimate("T", q), want.intersectEstimate("T", q)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("trial %d step %d: estimate of %v is %v, want %v", trial, step, q, g, w)
				}
			}
		}
		if got.BucketCount("T") < 512 {
			t.Errorf("trial %d: %d buckets: the cap was never reached", trial, got.BucketCount("T"))
		}
	}
}

func sameBuckets(got, want []bucket) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d buckets, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].box.Equal(want[i].box) || math.Float64bits(got[i].count) != math.Float64bits(want[i].count) {
			return fmt.Errorf("bucket %d is %v:%v, want %v:%v", i, got[i].box, got[i].count, want[i].box, want[i].count)
		}
	}
	return nil
}

// splitStore returns a 2-d learning store whose partition has grown to at
// least n buckets under random feedback, or fails tb.
func splitStore(tb testing.TB, n int) (*Store, region.Box) {
	rng := rand.New(rand.NewSource(7))
	full := region.NewBox(region.Interval{Lo: 0, Hi: 6_000_000}, region.Interval{Lo: 19920101, Hi: 19981231})
	s := New()
	s.Register("T", full, 6_000_000)
	for i := 0; s.BucketCount("T") < n; i++ {
		if i == n {
			tb.Fatalf("%d feedbacks split the table into %d buckets only", i, s.BucketCount("T"))
		}
		s.Feedback("T", randomBox(rng, full), rng.Int63n(100000))
	}
	return s, full
}

// TestFeedbackAllocatesOnlyItsPieces is the allocation gate on learning:
// Feedback builds the next partition in the array the previous one lived
// in, so a feedback that splits one bucket of a 1 000-bucket table
// allocates its new pieces (the inside box and the remainders Subtract
// cuts), a few hundred bytes, not a copy of the 1 000 buckets — unless the
// partition has just outgrown that array, which happens once in a few
// dozen feedbacks. Every partition on the way, from the first feedback,
// equals bit for bit the one intersectFeedback, which builds a fresh list,
// produces from the same feedback. Counted with the collector off.
func TestFeedbackAllocatesOnlyItsPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	full := region.NewBox(region.Interval{Lo: 0, Hi: 6_000_000}, region.Interval{Lo: 19920101, Hi: 19981231})
	got, want := New(), New()
	got.Register("T", full, 6_000_000)
	want.Register("T", full, 6_000_000)
	var m0, m1 runtime.MemStats
	feedback := func(b region.Box, n int64) {
		runtime.ReadMemStats(&m0)
		got.Feedback("T", b, n)
		runtime.ReadMemStats(&m1)
		want.intersectFeedback("T", b, n)
		if err := sameBuckets(got.tables["T"].buckets, want.tables["T"].buckets); err != nil {
			t.Fatalf("after %d buckets: %v", got.BucketCount("T"), err)
		}
	}
	for got.BucketCount("T") < 1000 {
		feedback(randomBox(rng, full), rng.Int63n(100000))
	}
	if raceEnabled {
		return // the race detector perturbs allocation counts
	}
	const limit = 1024
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measured, regrown := 0, 0
	for measured < 16 {
		// A box a thousandth of the table's on each axis mostly falls
		// inside one bucket.
		b := full.Clone()
		for d, iv := range full.Dims {
			lo := iv.Lo + rng.Int63n(iv.Width()-iv.Width()/1000)
			b.Dims[d] = region.Interval{Lo: lo, Hi: lo + iv.Width()/1000}
		}
		ts, before := got.tables["T"], got.BucketCount("T")
		spare := ts.spare[:cap(ts.spare)]
		feedback(b, rng.Int63n(1000))
		if got.BucketCount("T") == before {
			continue // nothing split
		}
		measured++
		if len(spare) == 0 || &ts.buckets[0] != &spare[0] {
			regrown++
			continue
		}
		bytes := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("a feedback splitting %d buckets into %d allocates %d bytes", before, got.BucketCount("T"), bytes)
		if bytes > limit {
			t.Errorf("a feedback splitting %d buckets into %d allocates %d bytes, want at most %d", before, got.BucketCount("T"), bytes, limit)
		}
	}
	if regrown > 2 {
		t.Errorf("%d of 16 splitting feedbacks outgrew their spare array", regrown)
	}
}

// TestEstimateAllocatesNothing is the allocation gate on the histogram: an
// estimate walks the buckets without building an intersection box, at one
// bucket and at the 8 192-bucket cap.
func TestEstimateAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 8192} {
		s, full := splitStore(t, n)
		q := region.NewBox(region.Interval{Lo: 1_000_000, Hi: 2_500_000}, region.Interval{Lo: 19940101, Hi: 19950101})
		if s.Estimate("T", q) <= 0 || s.Estimate("T", full) <= 0 {
			t.Fatalf("%d buckets: the probe estimates nothing", s.BucketCount("T"))
		}
		if allocs := testing.AllocsPerRun(20, func() { s.Estimate("T", q) }); allocs != 0 {
			t.Errorf("Estimate over %d buckets: %.0f allocations, want 0", s.BucketCount("T"), allocs)
		}
	}
}

// BenchmarkEstimate prices one box against a histogram of 1 and of the
// 8 192-bucket cap:
//
//	go test ./internal/stats/ -run '^$' -bench Estimate -benchmem
func BenchmarkEstimate(b *testing.B) {
	q := region.NewBox(region.Interval{Lo: 1_000_000, Hi: 2_500_000}, region.Interval{Lo: 19940101, Hi: 19950101})
	for _, n := range []int{1, 8192} {
		s, _ := splitStore(b, n)
		b.Run(fmt.Sprintf("buckets=%d", s.BucketCount("T")), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Estimate("T", q)
			}
		})
	}
}
