package daemon_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"payless"
	"payless/internal/catalog"
	"payless/internal/daemon"
	"payless/internal/market"
	"payless/internal/tenant"
)

// downCaller simulates a hard market outage.
type downCaller struct{}

func (downCaller) Call(context.Context, catalog.AccessQuery) (market.Result, error) {
	return market.Result{}, errors.New("market unreachable")
}

func singleTenant(t *testing.T) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(0, tenant.Config{Name: "demo", Key: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestCircuitOpenReturns503WithRetryAfter pins the daemon's outage
// contract: once the breaker opens, tenants get 503 Service Unavailable
// with a Retry-After derived from the breaker cooldown — not a generic
// gateway error with no guidance.
func TestCircuitOpenReturns503WithRetryAfter(t *testing.T) {
	m := rangeMarket(t)
	// Both ends and the middle of the jitter draw, then the real source: a
	// circuit-open hint is spread downward only, so it never exceeds the
	// breaker's 30 s cooldown (−25 % of it is 22.5 s, sent as 23).
	for _, tc := range []struct {
		name     string
		jitter   func() float64
		min, max int
	}{
		{"draw 0", func() float64 { return 0 }, 23, 23},
		{"draw 0.5", func() float64 { return 0.5 }, 30, 30},
		{"draw just under 1", func() float64 { return 1 - 1e-12 }, 23, 23},
		{"math/rand", nil, 23, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, err := payless.Open(payless.Config{
				Tables:               m.ExportCatalog(),
				Caller:               downCaller{},
				TuplesPerTransaction: map[string]int{"DS": 10},
			}, payless.WithCallPolicy(payless.CallPolicy{BreakAfter: 1, Cooldown: 30 * time.Second}))
			if err != nil {
				t.Fatal(err)
			}
			srv := newDaemon(t, client, singleTenant(t), func(c *daemon.Config) { c.Jitter = tc.jitter })
			h := srv.Handler()

			const sql = "SELECT v FROM T WHERE a >= 1 AND a <= 20"
			// First query trips the breaker; it fails downstream, not short-circuited.
			if code, _, _ := post(h, "demo", sql); code == http.StatusServiceUnavailable {
				t.Fatalf("first query short-circuited before the threshold (status %d)", code)
			}
			// Second query hits the open breaker: 503 + Retry-After.
			code, _, rec := post(h, "demo", sql)
			if code != http.StatusServiceUnavailable {
				t.Fatalf("open breaker returned %d, want 503", code)
			}
			ra := rec.Header().Get("Retry-After")
			if ra == "" {
				t.Fatal("503 without a Retry-After header")
			}
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < tc.min || secs > tc.max {
				t.Fatalf("Retry-After %q not within %d..%ds of the 30s breaker cooldown", ra, tc.min, tc.max)
			}
		})
	}
}

// healthz issues GET /healthz and decodes the body.
func healthz(t *testing.T, h http.Handler) (int, struct {
	Status    string                   `json:"status"`
	Endpoints []payless.EndpointHealth `json:"endpoints"`
}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body struct {
		Status    string                   `json:"status"`
		Endpoints []payless.EndpointHealth `json:"endpoints"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode /healthz: %v (body %q)", err, rec.Body.String())
	}
	return rec.Code, body
}

// TestHealthzReportsPerEndpointHealth drives a federated daemon through the
// /healthz states: "ok" with every mirror healthy, "degraded" (still 200)
// once the preferred mirror's breakers open, and per-endpoint detail that
// names the sick mirror.
func TestHealthzReportsPerEndpointHealth(t *testing.T) {
	m := rangeMarket(t, "acct")
	client, err := payless.Open(payless.Config{
		Tables: m.ExportCatalog(),
		FederationEndpoints: []payless.MarketEndpoint{
			// The dead mirror is cheaper, so it is attempted first.
			{Name: "bad", Caller: downCaller{}, PriceFactor: 1},
			{Name: "good", Caller: market.AccountCaller{Market: m, Key: "acct"}, PriceFactor: 2},
		},
		TuplesPerTransaction: map[string]int{"DS": 10},
	}, payless.WithCallPolicy(payless.CallPolicy{BreakAfter: 1, Cooldown: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	srv := newDaemon(t, client, singleTenant(t), nil)
	h := srv.Handler()

	code, body := healthz(t, h)
	if code != http.StatusOK || body.Status != "ok" {
		t.Fatalf("fresh daemon /healthz = %d %q, want 200 ok", code, body.Status)
	}
	if len(body.Endpoints) != 2 {
		t.Fatalf("want 2 endpoint entries, got %d", len(body.Endpoints))
	}

	// One query fails over off the dead mirror and opens its breaker —
	// served fine, but /healthz now says degraded and names the mirror.
	if code, _, _ := post(h, "demo", "SELECT v FROM T WHERE a >= 1 AND a <= 20"); code != http.StatusOK {
		t.Fatalf("query through failover returned %d, want 200", code)
	}
	code, body = healthz(t, h)
	if code != http.StatusOK || body.Status != "degraded" {
		t.Fatalf("/healthz after breaker opened = %d %q, want 200 degraded", code, body.Status)
	}
	for _, ep := range body.Endpoints {
		switch ep.Name {
		case "bad":
			if ep.Healthy || ep.OpenCircuits == 0 {
				t.Errorf("dead mirror reported healthy: %+v", ep)
			}
		case "good":
			if !ep.Healthy {
				t.Errorf("serving mirror reported unhealthy: %+v", ep)
			}
		}
	}
}

// TestHealthzDegradedWhenANeighbourSharesTheNamePrefix: an endpoint is
// judged by its own circuits only. With "eu|b" dead and "eu" serving, the
// daemon is 200 "degraded", not 503 "down".
func TestHealthzDegradedWhenANeighbourSharesTheNamePrefix(t *testing.T) {
	m := rangeMarket(t, "acct")
	client, err := payless.Open(payless.Config{
		Tables: m.ExportCatalog(),
		FederationEndpoints: []payless.MarketEndpoint{
			{Name: "eu|b", Caller: downCaller{}, PriceFactor: 1},
			{Name: "eu", Caller: market.AccountCaller{Market: m, Key: "acct"}, PriceFactor: 2},
		},
		TuplesPerTransaction: map[string]int{"DS": 10},
	}, payless.WithCallPolicy(payless.CallPolicy{BreakAfter: 1, Cooldown: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	h := newDaemon(t, client, singleTenant(t), nil).Handler()
	if code, _, _ := post(h, "demo", "SELECT v FROM T WHERE a >= 1 AND a <= 20"); code != http.StatusOK {
		t.Fatalf("query through failover returned %d, want 200", code)
	}
	code, body := healthz(t, h)
	if code != http.StatusOK || body.Status != "degraded" {
		t.Fatalf("/healthz = %d %q, want 200 degraded: %+v", code, body.Status, body.Endpoints)
	}
	if len(body.Endpoints) != 2 || body.Endpoints[1].Name != "eu" || !body.Endpoints[1].Healthy {
		t.Fatalf("serving endpoint \"eu\" reported unhealthy: %+v", body.Endpoints)
	}
}

// TestHealthzNonFederatedStaysPlain pins the single-market contract: a
// fresh daemon on one market answers 200 "ok", reporting that market as its
// one endpoint.
func TestHealthzNonFederatedStaysPlain(t *testing.T) {
	m := rangeMarket(t, "acct")
	srv := newDaemon(t, openClient(t, m, "acct"), singleTenant(t), nil)
	code, body := healthz(t, srv.Handler())
	if code != http.StatusOK || body.Status != "ok" || len(body.Endpoints) != 1 || body.Endpoints[0].Name != "market" {
		t.Fatalf("/healthz = %d %+v, want 200 ok with the one endpoint \"market\"", code, body)
	}
}

// TestHealthzNonFederatedDownWhenBreakerOpen: once a single-market daemon's
// breaker opens, every query short-circuits with 503 — and /healthz says so
// with 503 "down" instead of a healthy 200.
func TestHealthzNonFederatedDownWhenBreakerOpen(t *testing.T) {
	m := rangeMarket(t)
	client, err := payless.Open(payless.Config{
		Tables:               m.ExportCatalog(),
		Caller:               downCaller{},
		TuplesPerTransaction: map[string]int{"DS": 10},
	}, payless.WithCallPolicy(payless.CallPolicy{BreakAfter: 1, Cooldown: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	h := newDaemon(t, client, singleTenant(t), nil).Handler()
	post(h, "demo", "SELECT v FROM T WHERE a >= 1 AND a <= 20") // fails and trips the breaker
	if code, _, _ := post(h, "demo", "SELECT v FROM T WHERE a >= 1 AND a <= 20"); code != http.StatusServiceUnavailable {
		t.Fatalf("query against the open breaker: HTTP %d, want 503", code)
	}
	code, body := healthz(t, h)
	if code != http.StatusServiceUnavailable || body.Status != "down" {
		t.Fatalf("/healthz with the market's breaker open = %d %q, want 503 down", code, body.Status)
	}
	if len(body.Endpoints) != 1 || body.Endpoints[0].Healthy || body.Endpoints[0].OpenCircuits == 0 {
		t.Fatalf("endpoint report: %+v", body.Endpoints)
	}
}
