package daemon

import (
	"math/rand"
	"testing"
	"time"
)

func TestJitterSpread(t *testing.T) {
	rnd := rand.New(rand.NewSource(42)).Float64
	base := 8 * time.Second
	lo, hi := base, base
	for i := 0; i < 1000; i++ {
		j := jitter(base, 0.25, rnd)
		if j < time.Duration(float64(base)*0.75) || j >= time.Duration(float64(base)*1.25)+time.Nanosecond {
			t.Fatalf("jittered %v outside [6s, 10s)", j)
		}
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	// The spread must actually be used: over 1000 draws the extremes land
	// near the bounds.
	if lo > time.Duration(float64(base)*0.80) || hi < time.Duration(float64(base)*1.20) {
		t.Fatalf("jitter spread [%v, %v] too narrow for ±25%% of %v", lo, hi, base)
	}
	if jitter(0, 0.25, rnd) != 0 {
		t.Fatalf("zero duration must pass through unjittered")
	}
	if jitter(base, 0, rnd) != base {
		t.Fatalf("zero fraction must pass through unjittered")
	}
}
