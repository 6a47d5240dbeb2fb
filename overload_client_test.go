package payless

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/connector"
	"payless/internal/federation"
	"payless/internal/market"
)

// scopeProbe wraps a market.Caller and records the query scope each call
// ran under: whether the context carried a deadline and which retry budget
// (if any) was attached.
type scopeProbe struct {
	inner market.Caller

	mu        sync.Mutex
	deadlines []bool
	budgets   []*federation.RetryBudget
}

func (p *scopeProbe) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	_, has := ctx.Deadline()
	p.mu.Lock()
	p.deadlines = append(p.deadlines, has)
	p.budgets = append(p.budgets, federation.BudgetFrom(ctx))
	p.mu.Unlock()
	return p.inner.Call(ctx, q)
}

func (p *scopeProbe) seen() (deadlines []bool, budgets []*federation.RetryBudget) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]bool(nil), p.deadlines...), append([]*federation.RetryBudget(nil), p.budgets...)
}

func TestQueryScopeAttachesDeadlineAndBudget(t *testing.T) {
	probe := &scopeProbe{}
	client, _, w := testSetup(t, func(cfg *Config) {
		probe.inner = cfg.Caller
		cfg.Caller = probe
	})
	defer client.Close()

	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[2], w.Dates[4])
	if _, err := client.Query(sql); err != nil {
		t.Fatal(err)
	}
	// A disjoint date slab, so the second query must hit the market too
	// (the first purchase cannot cover it).
	sql2 := fmt.Sprintf("SELECT * FROM Weather WHERE Country = '%s' AND Date >= %d AND Date <= %d", w.Countries[1], w.Dates[10], w.Dates[12])
	if _, err := client.Query(sql2); err != nil {
		t.Fatal(err)
	}

	_, budgets := probe.seen()
	if len(budgets) == 0 {
		t.Fatal("probe saw no market calls")
	}
	for i, b := range budgets {
		if b == nil {
			t.Errorf("call %d ran without a retry budget", i)
		}
	}
	// Each query must get a FRESH budget: one query's retries must not
	// drain another's allowance.
	if budgets[0] == budgets[len(budgets)-1] {
		t.Error("two queries shared one retry budget")
	}

	// The caller's context deadline is the query's deadline: one that has
	// already passed fails the query before any market call.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sql3 := fmt.Sprintf("SELECT * FROM Weather WHERE Country = '%s' AND Date >= %d AND Date <= %d", w.Countries[2], w.Dates[20], w.Dates[22])
	if _, err := client.QueryContext(ctx, sql3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}
	if _, after := probe.seen(); len(after) != len(budgets) {
		t.Fatalf("a query past its deadline made %d market calls", len(after)-len(budgets))
	}
}

// TestScheduledCallCarriesQueryBudgetAndTrace: the wire call the scheduler
// runs for a query — here one fired by the coalesce window — carries that
// query's retry budget, and the query's trace counts the call's retry.
func TestScheduledCallCarriesQueryBudgetAndTrace(t *testing.T) {
	m, w := buildChaosMarket(t)
	var failed atomic.Bool
	inner := m.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/data/") && failed.CompareAndSwap(false, true) {
			http.Error(rw, `{"error":"try again"}`, http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()
	probe := &scopeProbe{inner: connector.New(srv.URL, "acct")}
	client, err := Open(Config{Tables: m.ExportCatalog(), Caller: probe,
		retry: federation.Retry{Attempts: 3, Base: time.Millisecond, Max: time.Millisecond}},
		WithCoalesceWindow(time.Millisecond), WithTracer(&CollectTracer{}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date = %d", w.Dates[0])
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, budgets := probe.seen()
	if len(budgets) == 0 {
		t.Fatal("probe saw no market calls")
	}
	for i, b := range budgets {
		if b == nil {
			t.Fatalf("scheduled call %d ran without the query's retry budget", i)
		}
	}
	if _, _, spent, _ := budgets[0].Stats(); spent != 1 {
		t.Fatalf("the call's retry spent %d tokens, want 1", spent)
	}
	retries := 0
	for _, c := range res.Trace.Calls {
		retries += c.Retries
	}
	if retries != 1 {
		t.Fatalf("trace counts %d retries, want 1", retries)
	}
}

func TestQueryScopeKeepsCallerDeadline(t *testing.T) {
	probe := &scopeProbe{}
	client, _, w := testSetup(t, func(cfg *Config) {
		probe.inner = cfg.Caller
		cfg.Caller = probe
	})
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[2], w.Dates[3])
	if _, err := client.QueryContext(ctx, sql); err != nil {
		t.Fatal(err)
	}
	deadlines, _ := probe.seen()
	if len(deadlines) == 0 {
		t.Fatal("probe saw no market calls")
	}
	// The caller's deadline must survive: nothing in the client replaces it.
	d, _ := ctx.Deadline()
	if time.Until(d) > 31*time.Second {
		t.Fatalf("caller deadline was replaced: %v away", time.Until(d))
	}
}

func TestInflightGaugeReturnsToZero(t *testing.T) {
	client, _, w := testSetup(t, nil)
	defer client.Close()
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[2], w.Dates[3])
	if _, err := client.Query(sql); err != nil {
		t.Fatal(err)
	}
	if g := client.Metrics().InflightQueries; g != 0 {
		t.Fatalf("inflight gauge = %d after all queries settled, want 0", g)
	}
	client.AddQueueDepth(2)
	client.AddQueueDepth(-1)
	if g := client.Metrics().QueueDepth; g != 1 {
		t.Fatalf("queue depth gauge = %d, want 1", g)
	}
}

// TestUpdateFederationEndpointsNonFederated: a client opened on one
// Config.Caller is a federation of one endpoint named "market", visible in
// FederationHealth, but it has no endpoint list to swap — even a valid
// replacement is refused and the market endpoint stays.
func TestUpdateFederationEndpointsNonFederated(t *testing.T) {
	client, m, _ := testSetup(t, nil)
	defer client.Close()
	if h := client.FederationHealth(); len(h) != 1 || h[0].Name != "market" {
		t.Fatalf("health = %+v, want the one endpoint \"market\"", h)
	}
	swap := []MarketEndpoint{{Name: "x", Caller: market.AccountCaller{Market: m, Key: "acct"}}}
	if err := client.UpdateFederationEndpoints(swap); err == nil {
		t.Fatal("a client opened on Config.Caller must reject endpoint updates")
	}
	if h := client.FederationHealth(); len(h) != 1 || h[0].Name != "market" {
		t.Fatalf("health after refused swap = %+v, want \"market\" only", h)
	}
}

func TestUpdateFederationEndpointsHotSwap(t *testing.T) {
	mirrors := buildMirrors(t, 2)
	eps := mirrorEndpoints(mirrors, nil)
	client, err := Open(Config{
		Tables:                      mirrors[0].ExportCatalog(),
		FederationEndpoints:         eps[:1], // start with mirror-0 only
		DefaultTuplesPerTransaction: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	_, cw := buildChaosMarket(t) // same seed: just a query source
	queries := chaosQueries(cw)
	if _, err := client.Query(queries[0]); err != nil {
		t.Fatal(err)
	}
	m0, _ := mirrors[0].MeterOf("acct")
	if m0.Transactions == 0 {
		t.Fatal("warm-up query billed nothing at mirror-0")
	}

	// Swap the pool to mirror-1 only: later queries must bill there.
	if err := client.UpdateFederationEndpoints(eps[1:]); err != nil {
		t.Fatal(err)
	}
	if h := client.FederationHealth(); len(h) != 1 || h[0].Name != "mirror-1" {
		t.Fatalf("health after swap = %+v, want [mirror-1]", h)
	}
	if _, err := client.Query(queries[1]); err != nil {
		t.Fatal(err)
	}
	m1, _ := mirrors[1].MeterOf("acct")
	if m1.Transactions == 0 {
		t.Fatal("post-swap query did not bill the new endpoint")
	}
	m0b, _ := mirrors[0].MeterOf("acct")
	if m0b.Transactions != m0.Transactions {
		t.Fatalf("removed endpoint kept billing: %d -> %d", m0.Transactions, m0b.Transactions)
	}
}
