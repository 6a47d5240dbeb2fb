package federation

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"payless/internal/market"
	"payless/internal/obs"
)

// fakeClock is a manually advanced time source for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1000, 0)} }
func failN(t *testing.T, b *Breaker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		release, err := b.Acquire()
		if err != nil {
			t.Fatalf("failure %d rejected early: %v", i, err)
		}
		release(fmt.Errorf("boom"))
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := newClock()
	b := NewBreakerSet(3, time.Minute).WithClock(clk.now).For("DS")
	failN(t, b, 2)
	if release, err := b.Acquire(); err != nil {
		t.Fatalf("below threshold must stay closed: %v", err)
	} else {
		release(fmt.Errorf("boom")) // third consecutive failure trips it
	}
	if _, err := b.Acquire(); !errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("after 3 consecutive failures want market.ErrCircuitOpen, got %v", err)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	clk := newClock()
	b := NewBreakerSet(3, time.Minute).WithClock(clk.now).For("DS")
	failN(t, b, 2)
	release, err := b.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	release(nil) // success wipes the streak
	failN(t, b, 2)
	if _, err := b.Acquire(); err != nil {
		t.Fatalf("streak was reset, circuit must still be closed: %v", err)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newClock()
	m := obs.NewMetrics()
	b := NewBreakerSet(2, time.Minute).WithClock(clk.now).WithMetrics(m).For("DS")
	failN(t, b, 2)
	if _, err := b.Acquire(); !errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("want open, got %v", err)
	}
	// Cooldown not yet elapsed: still open.
	clk.advance(59 * time.Second)
	if _, err := b.Acquire(); !errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("cooldown not elapsed, want market.ErrCircuitOpen, got %v", err)
	}
	// Cooldown elapsed: exactly one probe is admitted, concurrents bounce.
	clk.advance(2 * time.Second)
	probe, err := b.Acquire()
	if err != nil {
		t.Fatalf("probe should be admitted after cooldown: %v", err)
	}
	if _, err := b.Acquire(); !errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("second caller during probe must bounce, got %v", err)
	}
	// Failed probe re-opens for another full cooldown.
	probe(fmt.Errorf("still down"))
	if _, err := b.Acquire(); !errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("failed probe must re-open, got %v", err)
	}
	clk.advance(61 * time.Second)
	probe, err = b.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	probe(nil) // successful probe closes the circuit
	if _, err := b.Acquire(); err != nil {
		t.Fatalf("successful probe must close the circuit: %v", err)
	}
	snap := m.Snapshot()
	if snap.BreakerOpens != 2 || snap.BreakerProbes != 2 || snap.BreakerShortCircuits < 3 {
		t.Fatalf("metrics: opens=%d probes=%d shorts=%d", snap.BreakerOpens, snap.BreakerProbes, snap.BreakerShortCircuits)
	}
}

func TestBreakerIgnoresContextErrors(t *testing.T) {
	clk := newClock()
	b := NewBreakerSet(2, time.Minute).WithClock(clk.now).For("DS")
	// Teardown-induced cancellations must not trip the breaker: the engine
	// cancelled those calls itself, the seller never failed.
	for i := 0; i < 10; i++ {
		release, err := b.Acquire()
		if err != nil {
			t.Fatalf("cancelled calls tripped the breaker at %d: %v", i, err)
		}
		release(context.Canceled)
	}
	// A cancelled probe returns the circuit to open without counting as a
	// verdict — and the next caller may probe immediately.
	failN(t, b, 2)
	clk.advance(2 * time.Minute)
	probe, err := b.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	probe(context.DeadlineExceeded)
	probe2, err := b.Acquire()
	if err != nil {
		t.Fatalf("after cancelled probe the next caller should probe: %v", err)
	}
	probe2(nil)
	if _, err := b.Acquire(); err != nil {
		t.Fatalf("circuit should have closed: %v", err)
	}
}

func TestNilBreakerSetAdmitsEverything(t *testing.T) {
	var s *BreakerSet
	for i := 0; i < 5; i++ {
		release, err := s.Acquire("DS")
		if err != nil {
			t.Fatalf("nil set must admit: %v", err)
		}
		release(fmt.Errorf("boom"))
	}
	if got := NewBreakerSet(0, time.Minute); got != nil {
		t.Fatal("threshold<=0 must return a nil (disabled) set")
	}
}

func TestBreakerPerDatasetIsolation(t *testing.T) {
	clk := newClock()
	s := NewBreakerSet(2, time.Minute).WithClock(clk.now)
	failN(t, s.For("A"), 2)
	if _, err := s.Acquire("A"); !errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("A should be open: %v", err)
	}
	if release, err := s.Acquire("B"); err != nil {
		t.Fatalf("B must be unaffected by A's failures: %v", err)
	} else {
		release(nil)
	}
}
