package stats

import (
	"math"
	"math/rand"
	"testing"

	"payless/internal/region"
)

func box1d(lo, hi int64) region.Box { return region.NewBox(region.Interval{Lo: lo, Hi: hi}) }

func TestUniformEstimate(t *testing.T) {
	s := New()
	s.Register("R", box1d(0, 100), 1000)
	if !s.Registered("R") || s.Registered("X") {
		t.Error("Registered")
	}
	if got := s.Estimate("R", box1d(0, 100)); got != 1000 {
		t.Errorf("full box estimate: %v", got)
	}
	if got := s.Estimate("R", box1d(0, 10)); got != 100 {
		t.Errorf("10%% estimate: %v", got)
	}
	if got := s.Estimate("R", box1d(200, 300)); got != 0 {
		t.Errorf("outside estimate: %v", got)
	}
	if got := s.Estimate("X", box1d(0, 1)); got != 0 {
		t.Errorf("unknown table: %v", got)
	}
	if got := s.Estimate("R", box1d(5, 5)); got != 0 {
		t.Errorf("empty box: %v", got)
	}
}

func TestFeedbackExactInsideObservedBox(t *testing.T) {
	s := New()
	s.Register("R", box1d(0, 100), 1000)
	s.Feedback("R", box1d(0, 10), 600)
	if got := s.Estimate("R", box1d(0, 10)); math.Abs(got-600) > 1e-9 {
		t.Errorf("observed box estimate: %v, want 600", got)
	}
	// Outside keeps proportional share of the remainder: 1000*0.9=900.
	if got := s.Estimate("R", box1d(10, 100)); math.Abs(got-900) > 1e-9 {
		t.Errorf("outside estimate: %v, want 900", got)
	}
	if got := s.Total("R"); math.Abs(got-1500) > 1e-9 {
		t.Errorf("total: %v, want 1500", got)
	}
	if s.Total("X") != 0 {
		t.Error("total of unknown table")
	}
}

func TestFeedbackZeroCount(t *testing.T) {
	s := New()
	s.Register("R", box1d(0, 100), 1000)
	s.Feedback("R", box1d(20, 40), 0)
	if got := s.Estimate("R", box1d(20, 40)); got != 0 {
		t.Errorf("zeroed region must estimate 0: %v", got)
	}
	if got := s.Estimate("R", box1d(25, 35)); got != 0 {
		t.Errorf("sub-region of zeroed region: %v", got)
	}
}

func TestFeedbackOnZeroEstimateRegion(t *testing.T) {
	s := New()
	s.Register("R", box1d(0, 100), 1000)
	s.Feedback("R", box1d(0, 50), 0)
	// Now a sub-box of the zeroed half learns a positive count: the sum
	// branch is zero, so the count distributes by volume.
	s.Feedback("R", box1d(10, 30), 200)
	if got := s.Estimate("R", box1d(10, 30)); math.Abs(got-200) > 1e-9 {
		t.Errorf("re-learned region: %v, want 200", got)
	}
}

func TestFeedback2D(t *testing.T) {
	s := New()
	full := region.NewBox(region.Interval{Lo: 0, Hi: 10}, region.Interval{Lo: 0, Hi: 10})
	s.Register("R", full, 100)
	obs := region.NewBox(region.Interval{Lo: 0, Hi: 5}, region.Interval{Lo: 0, Hi: 5})
	s.Feedback("R", obs, 80)
	if got := s.Estimate("R", obs); math.Abs(got-80) > 1e-9 {
		t.Errorf("2d observed: %v", got)
	}
	// The whole space now estimates 80 + 75 (remaining three quadrants kept
	// their uniform shares: 100*(75/100)=75).
	if got := s.Estimate("R", full); math.Abs(got-155) > 1e-9 {
		t.Errorf("2d total: %v, want 155", got)
	}
}

func TestFeedbackUnknownTableAndEmptyBox(t *testing.T) {
	s := New()
	s.Register("R", box1d(0, 10), 10)
	s.Feedback("X", box1d(0, 1), 5) // must not panic
	s.Feedback("R", box1d(3, 3), 5) // empty box ignored
	if got := s.Estimate("R", box1d(0, 10)); got != 10 {
		t.Errorf("estimate after no-op feedback: %v", got)
	}
}

func TestBucketCap(t *testing.T) {
	s := New()
	s.maxBuckets = 4
	s.Register("R", box1d(0, 1000), 1000)
	for i := int64(0); i < 50; i++ {
		s.Feedback("R", box1d(i*10, i*10+10), 5)
	}
	if got := s.BucketCount("R"); got > 2*s.maxBuckets {
		t.Errorf("bucket count %d exceeds cap headroom", got)
	}
	if s.BucketCount("X") != 0 {
		t.Error("BucketCount of unknown table")
	}
}

// Property: after feedback, the estimate for the exact observed box matches
// the observation, for random non-overlapping learning sequences.
func TestFeedbackConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New()
		s.Register("R", box1d(0, 1000), 5000)
		lo := int64(0)
		type obs struct {
			b region.Box
			n int64
		}
		var observations []obs
		for lo < 900 {
			w := rng.Int63n(80) + 1
			b := box1d(lo, lo+w)
			n := rng.Int63n(200)
			s.Feedback("R", b, n)
			observations = append(observations, obs{b, n})
			lo += w + rng.Int63n(20)
		}
		for _, o := range observations {
			got := s.Estimate("R", o.b)
			if math.Abs(got-float64(o.n)) > 1e-6 {
				t.Fatalf("trial %d: estimate %v for observed %d in %v", trial, got, o.n, o.b)
			}
		}
	}
}

func TestReRegisterResets(t *testing.T) {
	s := New()
	s.Register("R", box1d(0, 100), 1000)
	s.Feedback("R", box1d(0, 10), 999)
	s.Register("R", box1d(0, 100), 1000)
	if got := s.Estimate("R", box1d(0, 10)); got != 100 {
		t.Errorf("re-register must reset: %v", got)
	}
}

// TestVersionsArePerTable: a version snapshot moves with its own table's
// Register and non-empty Feedback only; a snapshot of an unknown table has
// always moved.
func TestVersionsArePerTable(t *testing.T) {
	s := New()
	s.Register("R", box1d(0, 100), 1000)
	s.Register("S", box1d(0, 100), 1000)
	r, sv := s.Version("R"), s.Version("S")
	if r.Moved() || sv.Moved() {
		t.Fatal("fresh snapshots must not have moved")
	}
	s.Feedback("S", box1d(0, 10), 5)
	if r.Moved() || !sv.Moved() {
		t.Errorf("feedback on S: R moved %v, S moved %v; want only S", r.Moved(), sv.Moved())
	}
	s.Feedback("R", box1d(5, 5), 0)  // an empty box teaches nothing
	s.Feedback("X", box1d(0, 10), 3) // nor does an unknown table
	if r.Moved() {
		t.Error("feedback that changes nothing moved R")
	}
	s.Register("R", box1d(0, 100), 2000)
	if !r.Moved() || s.Version("R").Moved() {
		t.Error("re-registering R must move its old snapshot, not a new one")
	}
	if !s.Version("X").Moved() {
		t.Error("a snapshot of an unknown table must have moved")
	}
}
