package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/obs"
)

// countingCaller serves every call with a fixed one-transaction result and
// counts attempts; fail, while set, turns attempts into hard errors.
type countingCaller struct {
	name  string
	calls atomic.Int64
	fail  atomic.Bool
	// block, when non-nil, parks every attempt until the context dies or
	// the channel closes (for hedge/cancellation tests).
	block chan struct{}
	// seenID records the CallIDs presented, for idempotency assertions.
	mu      sync.Mutex
	seenIDs []string
}

func (c *countingCaller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	c.calls.Add(1)
	c.mu.Lock()
	c.seenIDs = append(c.seenIDs, q.CallID)
	c.mu.Unlock()
	if c.block != nil {
		select {
		case <-ctx.Done():
			return market.Result{}, ctx.Err()
		case <-c.block:
		}
	}
	if c.fail.Load() {
		return market.Result{}, fmt.Errorf("endpoint %s down", c.name)
	}
	return market.Result{Records: 1, Transactions: 1, Price: 1}, nil
}

func (c *countingCaller) lastID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.seenIDs) == 0 {
		return ""
	}
	return c.seenIDs[len(c.seenIDs)-1]
}

func q(ds, table string) catalog.AccessQuery {
	return catalog.AccessQuery{Dataset: ds, Table: table}
}

func TestRankPrefersCheaperEndpoint(t *testing.T) {
	cheap := &countingCaller{name: "cheap"}
	costly := &countingCaller{name: "costly"}
	f, err := New([]Endpoint{
		{Name: "costly", Caller: costly, PriceFactor: 2},
		{Name: "cheap", Caller: cheap, PriceFactor: 1},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := f.Call(context.Background(), q("DS", "T")); err != nil {
			t.Fatal(err)
		}
	}
	if cheap.calls.Load() != 5 || costly.calls.Load() != 0 {
		t.Fatalf("cheap=%d costly=%d, want all 5 at the cheaper mirror",
			cheap.calls.Load(), costly.calls.Load())
	}
}

func TestLatencyHintBreaksPriceTie(t *testing.T) {
	near := &countingCaller{name: "near"}
	far := &countingCaller{name: "far"}
	f, err := New([]Endpoint{
		{Name: "far", Caller: far, LatencyHint: 500 * time.Millisecond},
		{Name: "near", Caller: near, LatencyHint: 5 * time.Millisecond},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Call(context.Background(), q("DS", "T")); err != nil {
		t.Fatal(err)
	}
	if near.calls.Load() != 1 || far.calls.Load() != 0 {
		t.Fatalf("near=%d far=%d, want the lower-latency mirror at equal price",
			near.calls.Load(), far.calls.Load())
	}
}

func TestFailoverToNextCheapestEndpoint(t *testing.T) {
	m := obs.NewMetrics()
	cheap := &countingCaller{name: "cheap"}
	cheap.fail.Store(true)
	costly := &countingCaller{name: "costly"}
	f, err := New([]Endpoint{
		{Name: "cheap", Caller: cheap, PriceFactor: 1},
		{Name: "costly", Caller: costly, PriceFactor: 2},
	}, Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Call(context.Background(), q("DS", "T"))
	if err != nil {
		t.Fatalf("failover should have served the call: %v", err)
	}
	if res.Transactions != 1 {
		t.Fatalf("transactions=%d, want 1", res.Transactions)
	}
	if cheap.calls.Load() != 1 || costly.calls.Load() != 1 {
		t.Fatalf("cheap=%d costly=%d, want one attempt each", cheap.calls.Load(), costly.calls.Load())
	}
	if rt := res.Route; rt.Endpoint != "costly" || rt.Failovers != 1 {
		t.Fatalf("route endpoint=%q failovers=%d, want costly/1", rt.Endpoint, rt.Failovers)
	}
	s := m.Snapshot()
	if s.FederationCalls != 1 || s.FederationFailovers != 1 {
		t.Fatalf("metrics calls=%d failovers=%d, want 1/1", s.FederationCalls, s.FederationFailovers)
	}
	// Both endpoints must have seen the same idempotent CallID: a retry
	// against either replays instead of re-billing.
	if id := cheap.lastID(); id == "" || id != costly.lastID() {
		t.Fatalf("CallIDs differ across endpoints: %q vs %q", cheap.lastID(), costly.lastID())
	}
}

// TestBreakerIsPerEndpointAndDataset is the PR 4 → federation migration
// property: one dead mirror's open breaker must not blacklist the dataset
// at healthy mirrors, and must not blacklist the dead mirror's other
// datasets either.
func TestBreakerIsPerEndpointAndDataset(t *testing.T) {
	dead := &countingCaller{name: "dead"}
	dead.fail.Store(true)
	live := &countingCaller{name: "live"}
	f, err := New([]Endpoint{
		{Name: "dead", Caller: dead, PriceFactor: 1},
		{Name: "live", Caller: live, PriceFactor: 2},
	}, Config{Policy: Policy{BreakAfter: 1, Cooldown: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	// First call on DS: dead attempts and trips dead|DS; live serves.
	if _, err := f.Call(context.Background(), q("DS", "T")); err != nil {
		t.Fatal(err)
	}
	if dead.calls.Load() != 1 {
		t.Fatalf("dead attempts=%d, want 1", dead.calls.Load())
	}
	// Second call on DS: dead|DS is open, dead is skipped without an attempt.
	if _, err := f.Call(context.Background(), q("DS", "T")); err != nil {
		t.Fatal(err)
	}
	if dead.calls.Load() != 1 {
		t.Fatalf("dead attempted while its breaker was open (attempts=%d)", dead.calls.Load())
	}
	if live.calls.Load() != 2 {
		t.Fatalf("live served %d, want 2 — the dataset must stay available", live.calls.Load())
	}
	// A different dataset still probes the dead mirror: dead|DS2 is closed.
	if _, err := f.Call(context.Background(), q("DS2", "T2")); err != nil {
		t.Fatal(err)
	}
	if dead.calls.Load() != 2 {
		t.Fatalf("dead|DS2 should be independent of dead|DS (attempts=%d, want 2)", dead.calls.Load())
	}
}

func TestAllEndpointsOpenReturnsCircuitOpenWithRetryAfter(t *testing.T) {
	m := obs.NewMetrics()
	a := &countingCaller{name: "a"}
	a.fail.Store(true)
	b := &countingCaller{name: "b"}
	b.fail.Store(true)
	f, err := New([]Endpoint{
		{Name: "a", Caller: a},
		{Name: "b", Caller: b},
	}, Config{Policy: Policy{BreakAfter: 1, Cooldown: time.Hour}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	// First call: both attempted, both trip, call fails hard.
	if _, err := f.Call(context.Background(), q("DS", "T")); err == nil {
		t.Fatal("both endpoints down: want an error")
	}
	// Second call: both refused — a circuit-open error carrying the soonest
	// re-probe time, for the daemon's 503 + Retry-After.
	_, err = f.Call(context.Background(), q("DS", "T"))
	if !errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	var coe *market.CircuitOpenError
	if !errors.As(err, &coe) || coe.RetryAfter <= 0 {
		t.Fatalf("want CircuitOpenError with positive RetryAfter, got %v", err)
	}
	if s := m.Snapshot(); s.FederationExhausted != 2 {
		t.Fatalf("exhausted=%d, want 2", s.FederationExhausted)
	}
	if a.calls.Load() != 1 || b.calls.Load() != 1 {
		t.Fatalf("open breakers must refuse without attempts: a=%d b=%d", a.calls.Load(), b.calls.Load())
	}
}

// TestBreakerTransitionsUnderConcurrentFailover drives the full
// closed→open→half-open→closed cycle of a per-endpoint breaker while many
// goroutines fail over concurrently (run under -race): queries never fail
// while one mirror flaps, and the flapping mirror is re-admitted after its
// cooldown via a successful probe.
func TestBreakerTransitionsUnderConcurrentFailover(t *testing.T) {
	flappy := &countingCaller{name: "flappy"}
	flappy.fail.Store(true)
	steady := &countingCaller{name: "steady"}
	f, err := New([]Endpoint{
		{Name: "flappy", Caller: flappy, PriceFactor: 1},
		{Name: "steady", Caller: steady, PriceFactor: 2},
	}, Config{Policy: Policy{BreakAfter: 1, Cooldown: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: hammer while the cheap mirror is down. Every query must
	// complete via the steady mirror; flappy's breaker trips along the way.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := f.Call(context.Background(), q("DS", "T")); err != nil {
					t.Errorf("call failed during flap: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if steady.calls.Load() != 200 {
		t.Fatalf("steady served %d, want all 200", steady.calls.Load())
	}
	for _, h := range f.Health() {
		if h.Name == "flappy" && h.Healthy {
			t.Fatal("flappy should report open circuits after the flap")
		}
	}

	// Phase 2: heal the mirror and wait out the cooldown; concurrent calls
	// race the half-open probe. Exactly one wins it, closes the circuit,
	// and the cheap mirror takes the traffic back.
	flappy.fail.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(25 * time.Millisecond)
		var wg2 sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg2.Add(1)
			go func() {
				defer wg2.Done()
				if _, err := f.Call(context.Background(), q("DS", "T")); err != nil {
					t.Errorf("call failed during recovery: %v", err)
				}
			}()
		}
		wg2.Wait()
		healthy := false
		for _, h := range f.Health() {
			if h.Name == "flappy" {
				healthy = h.Healthy && h.ConsecutiveFailures == 0
			}
		}
		if healthy && flappy.calls.Load() > 3 { // served again beyond the trip attempts
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flappy never recovered: probe did not close the breaker")
		}
	}
}

func TestHedgeWinsWhenPrimaryIsSlow(t *testing.T) {
	m := obs.NewMetrics()
	slow := &countingCaller{name: "slow", block: make(chan struct{})}
	fast := &countingCaller{name: "fast"}
	f, err := New([]Endpoint{
		{Name: "slow", Caller: slow, PriceFactor: 1},
		{Name: "fast", Caller: fast, PriceFactor: 2},
	}, Config{Policy: Policy{HedgeAfter: 5 * time.Millisecond}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Call(context.Background(), q("DS", "T"))
	if err != nil {
		t.Fatalf("hedge should have served the call: %v", err)
	}
	if res.Transactions != 1 {
		t.Fatalf("transactions=%d, want 1", res.Transactions)
	}
	if rt := res.Route; !rt.Hedged || !rt.HedgeWon || rt.Endpoint != "fast" {
		t.Fatalf("route hedged=%v won=%v endpoint=%q, want true/true/fast",
			rt.Hedged, rt.HedgeWon, rt.Endpoint)
	}
	s := m.Snapshot()
	if s.FederationHedges != 1 || s.FederationHedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", s.FederationHedges, s.FederationHedgeWins)
	}
	// The slow loser was cancelled, and both attempts carried one CallID.
	if id := slow.lastID(); id == "" || id != fast.lastID() {
		t.Fatalf("hedge CallIDs differ: %q vs %q", slow.lastID(), fast.lastID())
	}
}

func TestHedgeLosesWhenPrimaryAnswersFirst(t *testing.T) {
	m := obs.NewMetrics()
	primary := &countingCaller{name: "primary", block: make(chan struct{})}
	backup := &countingCaller{name: "backup", block: make(chan struct{})}
	f, err := New([]Endpoint{
		{Name: "primary", Caller: primary, PriceFactor: 1},
		{Name: "backup", Caller: backup, PriceFactor: 2},
	}, Config{Policy: Policy{HedgeAfter: time.Millisecond}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	// Release the primary once the hedge has certainly launched.
	go func() {
		for m.Snapshot().FederationHedges == 0 {
			time.Sleep(time.Millisecond)
		}
		close(primary.block)
	}()
	res, err := f.Call(context.Background(), q("DS", "T"))
	if err != nil {
		t.Fatal(err)
	}
	if rt := res.Route; !rt.Hedged || rt.HedgeWon || rt.Endpoint != "primary" {
		t.Fatalf("route hedged=%v won=%v endpoint=%q, want true/false/primary",
			rt.Hedged, rt.HedgeWon, rt.Endpoint)
	}
	if s := m.Snapshot(); s.FederationHedgeWins != 0 {
		t.Fatalf("hedge wins=%d, want 0", s.FederationHedgeWins)
	}
}

func TestMirrorsRestrictEligibility(t *testing.T) {
	a := &countingCaller{name: "a"}
	b := &countingCaller{name: "b"}
	mirrors := map[string][]catalog.Mirror{
		"OnlyB": {{Endpoint: "b"}},
		// PricedDown flips the default order: endpoint b is half price there.
		"PricedDown": {{Endpoint: "a"}, {Endpoint: "b", PriceFactor: 0.5}},
	}
	f, err := New([]Endpoint{
		{Name: "a", Caller: a, PriceFactor: 1},
		{Name: "b", Caller: b, PriceFactor: 2},
	}, Config{Mirrors: mirrors})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Call(context.Background(), q("DS", "OnlyB")); err != nil {
		t.Fatal(err)
	}
	if a.calls.Load() != 0 || b.calls.Load() != 1 {
		t.Fatalf("OnlyB routed a=%d b=%d, want 0/1", a.calls.Load(), b.calls.Load())
	}
	if _, err := f.Call(context.Background(), q("DS", "PricedDown")); err != nil {
		t.Fatal(err)
	}
	if b.calls.Load() != 2 {
		t.Fatalf("PricedDown should prefer the discounted mirror (b=%d, want 2)", b.calls.Load())
	}
	// A table with no mirror entries is served by any endpoint (cheapest).
	if _, err := f.Call(context.Background(), q("DS", "Unrestricted")); err != nil {
		t.Fatal(err)
	}
	if a.calls.Load() != 1 {
		t.Fatalf("unrestricted table should use the cheap default endpoint (a=%d)", a.calls.Load())
	}
}

func TestNoEligibleEndpointFails(t *testing.T) {
	a := &countingCaller{name: "a"}
	f, err := New([]Endpoint{{Name: "a", Caller: a}}, Config{
		Mirrors: map[string][]catalog.Mirror{"T": {{Endpoint: "elsewhere"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Call(context.Background(), q("DS", "T")); err == nil {
		t.Fatal("want an error when no configured endpoint offers the table")
	}
}

func TestCancelAbortsPromptly(t *testing.T) {
	a := &countingCaller{name: "a", block: make(chan struct{})}
	b := &countingCaller{name: "b", block: make(chan struct{})}
	f, err := New([]Endpoint{
		{Name: "a", Caller: a},
		{Name: "b", Caller: b},
	}, Config{Policy: Policy{HedgeAfter: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.Call(ctx, q("DS", "T"))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled federated call never returned")
	}
}

func TestNewValidation(t *testing.T) {
	a := &countingCaller{name: "a"}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("want error for zero endpoints")
	}
	if _, err := New([]Endpoint{{Name: "", Caller: a}}, Config{}); err == nil {
		t.Fatal("want error for empty name")
	}
	if _, err := New([]Endpoint{{Name: "a", Caller: a}, {Name: "a", Caller: a}}, Config{}); err == nil {
		t.Fatal("want error for duplicate name")
	}
	if _, err := New([]Endpoint{{Name: "a"}}, Config{}); err == nil {
		t.Fatal("want error for missing transport")
	}
}

func TestBackoffDelayShape(t *testing.T) {
	r := Retry{Attempts: 3, Base: 100 * time.Millisecond, Max: 400 * time.Millisecond}
	for attempt, max := range map[int]time.Duration{1: 100 * time.Millisecond, 2: 200 * time.Millisecond, 5: 400 * time.Millisecond} {
		for i := 0; i < 20; i++ {
			d := r.delay(attempt, 0)
			if d < max/2 || d > max {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, max/2, max)
			}
		}
	}
	// A Retry-After is waited as given, capped at Max.
	if d := r.delay(1, 300*time.Millisecond); d != 300*time.Millisecond {
		t.Fatalf("Retry-After 300ms: delay %v", d)
	}
	if d := r.delay(1, time.Hour); d != r.Max {
		t.Fatalf("Retry-After 1h: delay %v, want the %v cap", d, r.Max)
	}
}

// TestHealthCountsOnlyItsOwnCircuits: an endpoint's report counts its own
// circuits only, even when another endpoint's name starts with its name and
// a '|' — a name the daemon accepts.
func TestHealthCountsOnlyItsOwnCircuits(t *testing.T) {
	down := &countingCaller{name: "eu|b"}
	down.fail.Store(true)
	up := &countingCaller{name: "eu"}
	f, err := New([]Endpoint{
		{Name: "eu|b", Caller: down, PriceFactor: 1},
		{Name: "eu", Caller: up, PriceFactor: 2},
	}, Config{Policy: Policy{BreakAfter: 1, Cooldown: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Call(context.Background(), q("DS", "T")); err != nil {
		t.Fatal(err)
	}
	h := f.Health()
	if h[0].Name != "eu|b" || h[0].Healthy || h[0].OpenCircuits != 1 {
		t.Fatalf("failing endpoint: %+v, want one open circuit", h[0])
	}
	if h[1].Name != "eu" || !h[1].Healthy || h[1].OpenCircuits != 0 || h[1].Calls != 1 || h[1].Failures != 0 {
		t.Fatalf("serving endpoint blamed for its neighbour's circuit: %+v", h[1])
	}
}

// TestReaddedEndpointStartsClosed: a removed endpoint's circuits leave with
// it, so one re-added under its name starts with fresh health and closed
// circuits instead of serving out the old cooldown.
func TestReaddedEndpointStartsClosed(t *testing.T) {
	a := &countingCaller{name: "a"}
	a.fail.Store(true)
	b := &countingCaller{name: "b"}
	both := []Endpoint{{Name: "a", Caller: a, PriceFactor: 1}, {Name: "b", Caller: b, PriceFactor: 2}}
	f, err := New(both, Config{Policy: Policy{BreakAfter: 1, Cooldown: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Call(context.Background(), q("DS", "T")); err != nil {
		t.Fatal(err)
	}
	if h := f.Health()[0]; h.OpenCircuits != 1 {
		t.Fatalf("a's circuit did not open: %+v", h)
	}
	if err := f.UpdateEndpoints(both[1:]); err != nil {
		t.Fatal(err)
	}
	a.fail.Store(false)
	if err := f.UpdateEndpoints(both); err != nil {
		t.Fatal(err)
	}
	if h := f.Health()[0]; h.Name != "a" || !h.Healthy || h.Calls != 0 || h.OpenCircuits != 0 || h.RetryInMillis != 0 {
		t.Fatalf("re-added endpoint: %+v, want fresh health and closed circuits", h)
	}
	if _, err := f.Call(context.Background(), q("DS", "T")); err != nil {
		t.Fatal(err)
	}
	if a.calls.Load() != 2 {
		t.Fatalf("re-added endpoint attempted %d times, want 2: its circuit must be closed", a.calls.Load())
	}
}
