package federation

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"payless/internal/market"
)

func TestRetryBudgetBoundsFailovers(t *testing.T) {
	a := &countingCaller{name: "a"}
	b := &countingCaller{name: "b"}
	c := &countingCaller{name: "c"}
	a.fail.Store(true)
	b.fail.Store(true)
	c.fail.Store(true)
	f, err := New([]Endpoint{
		{Name: "a", Caller: a, PriceFactor: 1},
		{Name: "b", Caller: b, PriceFactor: 2},
		{Name: "c", Caller: c, PriceFactor: 3},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// One token: the primary attempt is free, one failover is funded, the
	// second is denied with ErrRetryBudget — endpoint c is never tried.
	ctx := WithBudget(context.Background(), NewRetryBudget(1))
	_, cerr := f.Call(ctx, q("DS", "T"))
	if !errors.Is(cerr, market.ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", cerr)
	}
	if a.calls.Load() != 1 || b.calls.Load() != 1 || c.calls.Load() != 0 {
		t.Fatalf("calls a=%d b=%d c=%d, want 1 1 0", a.calls.Load(), b.calls.Load(), c.calls.Load())
	}

	// Without a budget every endpoint is tried before the call fails.
	_, cerr = f.Call(context.Background(), q("DS", "T"))
	if cerr == nil || errors.Is(cerr, market.ErrRetryBudget) {
		t.Fatalf("budget-free call should exhaust endpoints, got %v", cerr)
	}
	if c.calls.Load() != 1 {
		t.Fatalf("endpoint c calls = %d, want 1 without a budget", c.calls.Load())
	}
}

// TestFinalFailureSpendsNoToken: with two failing endpoints and a budget
// that covers exactly one failover, the failover is funded, and the final
// failure — with no endpoint left to try — neither spends a token nor turns
// the seller's error into ErrRetryBudget.
func TestFinalFailureSpendsNoToken(t *testing.T) {
	a := &countingCaller{name: "a"}
	b := &countingCaller{name: "b"}
	a.fail.Store(true)
	b.fail.Store(true)
	f, err := New([]Endpoint{
		{Name: "a", Caller: a, PriceFactor: 1},
		{Name: "b", Caller: b, PriceFactor: 2},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	budget := NewRetryBudget(1)
	_, cerr := f.Call(WithBudget(context.Background(), budget), q("DS", "T"))
	if cerr == nil || errors.Is(cerr, market.ErrRetryBudget) || !strings.Contains(cerr.Error(), "endpoint b down") {
		t.Fatalf("err = %v, want the last endpoint's error", cerr)
	}
	if a.calls.Load() != 1 || b.calls.Load() != 1 {
		t.Fatalf("calls a=%d b=%d, want 1 1", a.calls.Load(), b.calls.Load())
	}
	if _, _, spent, denied := budget.Stats(); spent != 1 || denied != 0 {
		t.Fatalf("budget spent %d, denied %d; want the one failover only", spent, denied)
	}
}

func TestHedgeSkippedSilentlyOnEmptyBudget(t *testing.T) {
	slow := &countingCaller{name: "slow", block: make(chan struct{})}
	backup := &countingCaller{name: "backup"}
	f, err := New([]Endpoint{
		{Name: "slow", Caller: slow, PriceFactor: 1},
		{Name: "backup", Caller: backup, PriceFactor: 2},
	}, Config{Policy: Policy{HedgeAfter: 10 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}

	ctx := WithBudget(context.Background(), NewRetryBudget(0))
	done := make(chan error, 1)
	go func() {
		_, cerr := f.Call(ctx, q("DS", "T"))
		done <- cerr
	}()
	// Give the hedge timer ample time to fire, then release the primary.
	time.Sleep(60 * time.Millisecond)
	close(slow.block)
	if cerr := <-done; cerr != nil {
		t.Fatalf("call must succeed through the primary: %v", cerr)
	}
	if backup.calls.Load() != 0 {
		t.Fatalf("hedge launched %d times on an empty budget, want 0", backup.calls.Load())
	}
}

func TestHedgeNotArmedInsideShortDeadline(t *testing.T) {
	slow := &countingCaller{name: "slow", block: make(chan struct{})}
	backup := &countingCaller{name: "backup"}
	f, err := New([]Endpoint{
		{Name: "slow", Caller: slow, PriceFactor: 1},
		{Name: "backup", Caller: backup, PriceFactor: 2},
	}, Config{Policy: Policy{HedgeAfter: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, cerr := f.Call(ctx, q("DS", "T"))
	if !errors.Is(cerr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", cerr)
	}
	if backup.calls.Load() != 0 {
		t.Fatalf("a hedge that cannot fire before the deadline must not launch")
	}
	close(slow.block)
}

// TestZeroPolicyNeverHedges pins that hedging is opt-in: a hedge may bill a
// second mirror, so the zero Policy leaves a slow primary unraced, with or
// without a deadline on the call.
func TestZeroPolicyNeverHedges(t *testing.T) {
	for _, timeout := range []time.Duration{0, 400 * time.Millisecond} {
		slow := &countingCaller{name: "slow", block: make(chan struct{})}
		backup := &countingCaller{name: "backup"}
		f, err := New([]Endpoint{
			{Name: "slow", Caller: slow, PriceFactor: 1},
			{Name: "backup", Caller: backup, PriceFactor: 2},
		}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		done := make(chan error, 1)
		go func() {
			_, err := f.Call(ctx, q("DS", "T"))
			done <- err
		}()
		time.Sleep(150 * time.Millisecond) // past any hedge a share of the deadline would arm
		close(slow.block)
		err = <-done
		cancel()
		if err != nil || backup.calls.Load() != 0 {
			t.Fatalf("timeout %v: err %v, backup calls %d; want the primary's answer and no hedge",
				timeout, err, backup.calls.Load())
		}
	}
}

func TestUpdateEndpointsPreservesObservedState(t *testing.T) {
	a := &countingCaller{name: "a"}
	b := &countingCaller{name: "b"}
	f, err := New([]Endpoint{
		{Name: "a", Caller: a, PriceFactor: 1},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Accumulate observed latency state on "a".
	for i := 0; i < 3; i++ {
		if _, cerr := f.Call(context.Background(), q("DS", "T")); cerr != nil {
			t.Fatal(cerr)
		}
	}
	before := f.Health()[0]
	if before.Calls != 3 {
		t.Fatalf("warm-up calls = %d, want 3", before.Calls)
	}

	// Hot-add "b" and keep "a": a's counters must survive the swap.
	if err := f.UpdateEndpoints([]Endpoint{
		{Name: "a", Caller: a, PriceFactor: 1},
		{Name: "b", Caller: b, PriceFactor: 2},
	}); err != nil {
		t.Fatal(err)
	}
	h := f.Health()
	if len(h) != 2 {
		t.Fatalf("health entries = %d, want 2", len(h))
	}
	if h[0].Name != "a" || h[0].Calls != 3 {
		t.Fatalf("endpoint a lost its observed state across the swap: %+v", h[0])
	}
	if h[1].Name != "b" {
		t.Fatalf("health after hot-add = %+v, want [a b]", h)
	}

	// Remove "a": calls now route to "b" only.
	if err := f.UpdateEndpoints([]Endpoint{{Name: "b", Caller: b, PriceFactor: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, cerr := f.Call(context.Background(), q("DS", "T")); cerr != nil {
		t.Fatal(cerr)
	}
	if b.calls.Load() != 1 || a.calls.Load() != 3 {
		t.Fatalf("calls a=%d b=%d after removal, want 3 1", a.calls.Load(), b.calls.Load())
	}
}

func TestUpdateEndpointsValidation(t *testing.T) {
	a := &countingCaller{name: "a"}
	f, err := New([]Endpoint{{Name: "a", Caller: a}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]Endpoint{
		nil,
		{{Name: "", Caller: a}},
		{{Name: "x", Caller: nil}},
		{{Name: "x", Caller: a}, {Name: "x", Caller: a}},
	}
	for i, eps := range cases {
		if err := f.UpdateEndpoints(eps); err == nil {
			t.Fatalf("case %d: invalid endpoint set accepted", i)
		}
	}
	// The failed updates must leave the pool untouched.
	if h := f.Health(); len(h) != 1 || h[0].Name != "a" {
		t.Fatalf("pool after failed updates = %+v, want [a]", h)
	}
}

func TestUpdateEndpointsDuringInflightCalls(t *testing.T) {
	a := &countingCaller{name: "a", block: make(chan struct{})}
	b := &countingCaller{name: "b"}
	f, err := New([]Endpoint{{Name: "a", Caller: a, PriceFactor: 1}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, cerr := f.Call(context.Background(), q("DS", "T"))
		done <- cerr
	}()
	time.Sleep(10 * time.Millisecond) // let the attempt park on a.block
	if err := f.UpdateEndpoints([]Endpoint{{Name: "b", Caller: b, PriceFactor: 1}}); err != nil {
		t.Fatal(err)
	}
	close(a.block) // release the in-flight attempt against the removed endpoint
	if cerr := <-done; cerr != nil {
		t.Fatalf("in-flight call must complete across the swap: %v", cerr)
	}
}
