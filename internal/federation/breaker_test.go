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

// breaker is one endpoint×dataset circuit of a federation of one endpoint,
// driven the way the attempt loop drives it: admit a visit, then settle its
// outcome once.
type breaker struct {
	f  *Caller
	ds string
}

// newBreakers builds a federation of one endpoint whose circuits open after
// threshold consecutive failures and re-probe after cooldown on clk.
func newBreakers(t *testing.T, threshold int, cooldown time.Duration, clk *fakeClock, m *obs.Metrics) *Caller {
	t.Helper()
	f, err := New([]Endpoint{{Name: "e", Caller: &countingCaller{name: "e"}}},
		Config{Policy: Policy{BreakAfter: threshold, Cooldown: cooldown}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	f.now = clk.now
	return f
}

// Acquire admits one visit and returns the function that settles it: nil
// is a success, a context error no verdict, any other error a failure.
func (b breaker) Acquire() (release func(callErr error), err error) {
	h := b.f.endpoints()[0].health
	probe, err := b.f.admit(h, b.ds)
	if err != nil {
		return nil, err
	}
	return func(callErr error) { b.f.settle(h, b.ds, probe, 0, callErr) }, nil
}

func failN(t *testing.T, b breaker, n int) {
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
	b := breaker{newBreakers(t, 3, time.Minute, clk, nil), "DS"}
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
	b := breaker{newBreakers(t, 3, time.Minute, clk, nil), "DS"}
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
	b := breaker{newBreakers(t, 2, time.Minute, clk, m), "DS"}
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
	b := breaker{newBreakers(t, 2, time.Minute, clk, nil), "DS"}
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

// TestNilBreakerSetAdmitsEverything: BreakAfter 0 never opens a circuit,
// and keeps none.
func TestNilBreakerSetAdmitsEverything(t *testing.T) {
	b := breaker{newBreakers(t, 0, time.Minute, newClock(), nil), "DS"}
	for i := 0; i < 5; i++ {
		release, err := b.Acquire()
		if err != nil {
			t.Fatalf("BreakAfter 0 must admit: %v", err)
		}
		release(fmt.Errorf("boom"))
	}
	if h := b.f.endpoints()[0].health; h.circuits != nil || h.failures != 5 {
		t.Fatalf("BreakAfter 0 must keep no circuits (%v) and still count failures (%d, want 5)", h.circuits, h.failures)
	}
}

func TestBreakerPerDatasetIsolation(t *testing.T) {
	clk := newClock()
	f := newBreakers(t, 2, time.Minute, clk, nil)
	failN(t, breaker{f, "A"}, 2)
	if _, err := (breaker{f, "A"}).Acquire(); !errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("A should be open: %v", err)
	}
	if release, err := (breaker{f, "B"}).Acquire(); err != nil {
		t.Fatalf("B must be unaffected by A's failures: %v", err)
	} else {
		release(nil)
	}
}

// TestBreakerLateSuccessKeepsCircuitOpen: a visit admitted while the circuit
// was closed may succeed after concurrent failures opened it. Its success
// only resets the failure count: it neither closes the circuit nor clears
// the probe in flight; only the probe decides.
func TestBreakerLateSuccessKeepsCircuitOpen(t *testing.T) {
	clk := newClock()
	b := breaker{newBreakers(t, 2, time.Minute, clk, nil), "DS"}
	early, err := b.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	during, err := b.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	failN(t, b, 2)
	early(nil)
	if _, err := b.Acquire(); !errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("a late success of a closed-admitted visit closed the circuit: %v", err)
	}
	clk.advance(2 * time.Minute)
	probe, err := b.Acquire()
	if err != nil {
		t.Fatalf("probe should be admitted after cooldown: %v", err)
	}
	during(nil)
	if _, err := b.Acquire(); !errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("a late success of a closed-admitted visit cleared the probe: %v", err)
	}
	probe(nil)
	if _, err := b.Acquire(); err != nil {
		t.Fatalf("the probe's success must close the circuit: %v", err)
	}
}
