package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3}, 3, 3},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPositionMediansRejectOneNoisyPass(t *testing.T) {
	passes := [][]float64{
		{1, 2, 3},
		{1, 2, 3},
		{9, 9, 9}, // the pass a GC cycle landed on
	}
	got := positionMedians(passes)
	for i, want := range []float64{1, 2, 3} {
		if got[i] != want {
			t.Errorf("position %d = %v, want %v", i, got[i], want)
		}
	}
}

func TestOutOfTime(t *testing.T) {
	for _, c := range []struct {
		elapsed time.Duration
		kept    int
		stop    bool
	}{
		{10 * time.Second, 0, false},
		{24 * time.Second, 30, false}, // in time: the pass count ends the run
		{26 * time.Second, 2, false},  // late, but too few passes for a median
		{26 * time.Second, 3, true},
		{61 * time.Second, 0, false}, // a run reports at least one pass
		{61 * time.Second, 1, true},
	} {
		if stop := outOfTime(c.elapsed, 20, c.kept); stop != c.stop {
			t.Errorf("outOfTime(%v, 20, %d) = %t, want %t", c.elapsed, c.kept, stop, c.stop)
		}
	}
}
