package daemon_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"payless"
	"payless/internal/catalog"
	"payless/internal/daemon"
	"payless/internal/market"
	"payless/internal/tenant"
)

// slowCaller delays every market call, honoring the context — the stand-in
// for a market too slow for the caller's deadline.
type slowCaller struct {
	inner market.Caller
	delay time.Duration
}

func (c slowCaller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	select {
	case <-time.After(c.delay):
	case <-ctx.Done():
		return market.Result{}, ctx.Err()
	}
	return c.inner.Call(ctx, q)
}

func openSlowClient(t *testing.T, m *market.Market, acct string, delay time.Duration) *payless.Client {
	t.Helper()
	client, err := payless.Open(payless.Config{
		Tables:               m.ExportCatalog(),
		Caller:               slowCaller{inner: market.AccountCaller{Market: m, Key: acct}, delay: delay},
		TuplesPerTransaction: map[string]int{"DS": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// postHdr is post with extra request headers.
func postHdr(h http.Handler, key, sql string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(sql))
	req.Header.Set("Authorization", "Bearer "+key)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestDeadline504 is the regression for the 504 mapping: a query that dies
// of its deadline mid-flight (not while queued) answers 504 and the body
// carries the deadline it had and the time it used.
func TestDeadline504(t *testing.T) {
	m := rangeMarket(t, "acct")
	client := openSlowClient(t, m, "acct", 10*time.Second)
	defer client.Close()
	reg, _ := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka"})
	h := newDaemon(t, client, reg, nil).Handler()

	rec := postHdr(h, "ka", "SELECT v FROM T WHERE a >= 1 AND a <= 10",
		map[string]string{"X-Deadline-Ms": "80"})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Error      string `json:"error"`
		DeadlineMs int64  `json:"deadline_ms"`
		ElapsedMs  int64  `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.DeadlineMs != 80 {
		t.Fatalf("deadline_ms = %d, want 80", body.DeadlineMs)
	}
	if body.ElapsedMs < 60 {
		t.Fatalf("elapsed_ms = %d, want >= ~the deadline", body.ElapsedMs)
	}
	if body.Error == "" {
		t.Fatal("504 body carries no error text")
	}
}

// TestDeadlineSources: the tenant's configured deadline applies without any
// header, and a malformed header is the client's error, not a shed.
func TestDeadlineSources(t *testing.T) {
	m := rangeMarket(t, "acct")
	client := openSlowClient(t, m, "acct", 10*time.Second)
	defer client.Close()
	reg, _ := tenant.NewRegistry(0,
		tenant.Config{Name: "slow", Key: "ks", Deadline: 80 * time.Millisecond},
		tenant.Config{Name: "free", Key: "kf"},
	)
	h := newDaemon(t, client, reg, func(c *daemon.Config) {
		c.DefaultDeadline = time.Hour // tenant override must beat this
	}).Handler()

	if rec := postHdr(h, "ks", "SELECT v FROM T WHERE a >= 1 AND a <= 10", nil); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("tenant deadline: HTTP %d, want 504", rec.Code)
	}
	rec := postHdr(h, "kf", "SELECT v FROM T WHERE a >= 1 AND a <= 10",
		map[string]string{"X-Deadline-Ms": "soon"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad X-Deadline-Ms: HTTP %d, want 400", rec.Code)
	}
	if rec := postHdr(h, "kf", "SELECT v FROM T WHERE a >= 1 AND a <= 10",
		map[string]string{"X-Deadline-Ms": "-5"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative X-Deadline-Ms: HTTP %d, want 400", rec.Code)
	}
}

// TestRetryAfterJitterSpread: Retry-After hints on 429s are spread ±25%
// around the base so shed clients desynchronize. A cycling jitter source
// must produce the exact edge values.
func TestRetryAfterJitterSpread(t *testing.T) {
	m := rangeMarket(t, "acct")
	client := openClient(t, m, "acct")
	defer client.Close()
	// Rate 1/8 qps, burst 1: after the first query the bucket's refill wait
	// is exactly 8s, the jitter base.
	reg, _ := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka", RatePerSec: 0.125, Burst: 1})
	now := time.Unix(1700000000, 0)
	draws := []float64{0, 0.5, 0.999999}
	var i int
	h := newDaemon(t, client, reg, func(c *daemon.Config) {
		c.Now = func() time.Time { return now }
		c.Jitter = func() float64 { v := draws[i%len(draws)]; i++; return v }
	}).Handler()

	if code, _, rec := post(h, "ka", "SELECT v FROM T WHERE a >= 1 AND a <= 10"); code != http.StatusOK {
		t.Fatalf("burst token: HTTP %d: %s", code, rec.Body.String())
	}
	got := make(map[string]bool)
	for range draws {
		code, _, rec := post(h, "ka", "SELECT v FROM T WHERE a >= 1 AND a <= 10")
		if code != http.StatusTooManyRequests {
			t.Fatalf("HTTP %d, want 429", code)
		}
		ra := rec.Header().Get("Retry-After")
		got[ra] = true
		secs, err := strconv.Atoi(ra)
		if err != nil {
			t.Fatalf("unparseable Retry-After %q", ra)
		}
		// base 8s, ±25%: every hint lands in [6s, 10s].
		if secs < 6 || secs > 10 {
			t.Fatalf("Retry-After %ds outside the jitter band [6,10]", secs)
		}
	}
	// draw 0 -> 6s, draw 0.5 -> 8s, draw ~1 -> 10s (rounded up).
	for _, want := range []string{"6", "8", "10"} {
		if !got[want] {
			t.Fatalf("jittered hints %v missing %q", got, want)
		}
	}
}

// TestQueuedDeadlineSheds: a request whose deadline dies while it queues
// for a slot is a cheap 429 shed (reason deadline), never a 504 — nothing
// ran, nothing billed.
func TestQueuedDeadlineSheds(t *testing.T) {
	m := rangeMarket(t, "acct")
	release := make(chan struct{})
	gate := &gatedCaller{inner: market.AccountCaller{Market: m, Key: "acct"}, gate: release}
	client, err := payless.Open(payless.Config{
		Tables:               m.ExportCatalog(),
		Caller:               gate,
		TuplesPerTransaction: map[string]int{"DS": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reg, _ := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka"})
	srv := newDaemon(t, client, reg, func(c *daemon.Config) {
		c.MaxInflight = 1
		c.ShedTarget = time.Hour // the queue wait alone must not shed first
	})
	h := srv.Handler()

	done := make(chan int, 1)
	go func() {
		code, _, _ := post(h, "ka", "SELECT v FROM T WHERE a >= 101 AND a <= 120")
		done <- code
	}()
	waitArrival(t, gate)
	meterBefore := meterOf(t, m, "acct")

	rec := postHdr(h, "ka", "SELECT v FROM T WHERE a >= 121 AND a <= 140",
		map[string]string{"X-Deadline-Ms": "40"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queued-past-deadline: HTTP %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if n := srv.ShedCount(daemon.ShedDeadline); n != 1 {
		t.Fatalf("shed[deadline] = %d, want 1", n)
	}
	if after := meterOf(t, m, "acct"); after.Transactions != meterBefore.Transactions {
		t.Fatal("a shed request billed the market")
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("gated query: HTTP %d, want 200", code)
	}
}

func waitArrival(t *testing.T, gate *gatedCaller) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for gate.arrivals() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the wire")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainLifecycle: Drain stops new admissions (503, reason draining),
// waits for in-flight queries to finish — none lost, all billed exactly
// once — checkpoints and closes the shared client.
func TestDrainLifecycle(t *testing.T) {
	m := rangeMarket(t, "acct")
	release := make(chan struct{})
	gate := &gatedCaller{inner: market.AccountCaller{Market: m, Key: "acct"}, gate: release}
	client, err := payless.Open(payless.Config{
		Tables:               m.ExportCatalog(),
		Caller:               gate,
		TuplesPerTransaction: map[string]int{"DS": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka"})
	srv := newDaemon(t, client, reg, nil)
	h := srv.Handler()

	inflight := make(chan int, 1)
	go func() {
		code, _, _ := post(h, "ka", "SELECT v FROM T WHERE a >= 1 AND a <= 20")
		inflight <- code
	}()
	waitArrival(t, gate)

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never set the draining flag")
		}
		time.Sleep(time.Millisecond)
	}

	// New work is refused instantly while the in-flight query still runs.
	rec := postHdr(h, "ka", "SELECT v FROM T WHERE a >= 21 AND a <= 40", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: HTTP %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("draining 503 carries no Retry-After")
	}
	if n := srv.ShedCount(daemon.ShedDraining); n == 0 {
		t.Fatal("draining shed not counted")
	}
	// healthz flips to draining so load balancers stop routing here.
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusServiceUnavailable || !strings.Contains(hrec.Body.String(), "draining") {
		t.Fatalf("healthz during drain: HTTP %d %s", hrec.Code, hrec.Body.String())
	}

	// The in-flight query finishes normally; only then does Drain return.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) before the in-flight query finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight query during drain: HTTP %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Exactly one query ran and billed; the client is closed.
	if meter := meterOf(t, m, "acct"); meter.Transactions == 0 {
		t.Fatal("drained query billed nothing")
	}
	if _, err := client.Query("SELECT v FROM T WHERE a >= 1 AND a <= 10"); err == nil {
		t.Fatal("client still open after Drain")
	}
}

// TestDrainDeadline: a drain bounded by an already-dead context reports the
// interruption instead of hanging on stuck handlers.
func TestDrainDeadline(t *testing.T) {
	m := rangeMarket(t, "acct")
	release := make(chan struct{})
	gate := &gatedCaller{inner: market.AccountCaller{Market: m, Key: "acct"}, gate: release}
	client, err := payless.Open(payless.Config{
		Tables:               m.ExportCatalog(),
		Caller:               gate,
		TuplesPerTransaction: map[string]int{"DS": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// LIFO: the gate must open BEFORE Close waits for the stuck query.
	defer close(release)
	reg, _ := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka"})
	srv := newDaemon(t, client, reg, nil)
	h := srv.Handler()
	go post(h, "ka", "SELECT v FROM T WHERE a >= 1 AND a <= 20")
	waitArrival(t, gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("Drain with stuck handler and dead context returned nil")
	}
}

// adminReq performs one admin-API request with the given key.
func adminReq(h http.Handler, method, path, key, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestAdminDisabledWithoutKey: with no AdminKey the admin surface does not
// exist — 404, indistinguishable from an unknown route.
func TestAdminDisabledWithoutKey(t *testing.T) {
	m := rangeMarket(t, "acct")
	client := openClient(t, m, "acct")
	defer client.Close()
	reg, _ := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka"})
	h := newDaemon(t, client, reg, nil).Handler()
	if rec := adminReq(h, http.MethodPut, "/v1/admin/endpoints", "anything", "[]"); rec.Code != http.StatusNotFound {
		t.Fatalf("admin without AdminKey: HTTP %d, want 404", rec.Code)
	}
}

// TestAdminEndpointsNonFederated: the endpoint-swap API sits behind the
// admin key (401 without it) and is a 400 on a single-market daemon.
func TestAdminEndpointsNonFederated(t *testing.T) {
	m := rangeMarket(t, "acct")
	client := openClient(t, m, "acct")
	defer client.Close()
	reg, _ := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka"})
	h := newDaemon(t, client, reg, func(c *daemon.Config) { c.AdminKey = "root" }).Handler()
	for _, key := range []string{"", "wrong"} {
		if rec := adminReq(h, http.MethodPut, "/v1/admin/endpoints", key, "[]"); rec.Code != http.StatusUnauthorized {
			t.Fatalf("admin key %q: HTTP %d, want 401", key, rec.Code)
		}
	}
	rec := adminReq(h, http.MethodPut, "/v1/admin/endpoints", "root",
		`[{"name": "x", "base_url": "http://localhost:1"}]`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("endpoint swap on non-federated daemon: HTTP %d, want 400", rec.Code)
	}
}

// TestOverloadMetricsFamilies pins the daemon-side overload metric names:
// the per-reason shed counter family and the client gauges, all in one
// scrape.
func TestOverloadMetricsFamilies(t *testing.T) {
	m := rangeMarket(t, "acct")
	client := openClient(t, m, "acct")
	defer client.Close()
	reg, _ := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka", RatePerSec: 0.001, Burst: 1})
	now := time.Unix(1700000000, 0)
	h := newDaemon(t, client, reg, func(c *daemon.Config) {
		c.Now = func() time.Time { return now }
	}).Handler()

	// Drive one rate-limit shed so the counter is provably live.
	post(h, "ka", "SELECT v FROM T WHERE a >= 1 AND a <= 10")
	if code, _, _ := post(h, "ka", "SELECT v FROM T WHERE a >= 1 AND a <= 10"); code != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", code)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE paylessd_shed_total counter",
		`paylessd_shed_total{reason="rate_limit"} 1`,
		`paylessd_shed_total{reason="queue_full"} 0`,
		`paylessd_shed_total{reason="queue_delay"} 0`,
		`paylessd_shed_total{reason="slot_wait"} 0`,
		`paylessd_shed_total{reason="deadline"} 0`,
		`paylessd_shed_total{reason="draining"} 0`,
		"# TYPE payless_inflight_queries gauge",
		"# TYPE payless_queue_depth gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRetryBudgetMapsTo503: an exhausted retry budget surfaces as 503, the
// "stop amplifying" signal, distinct from 502 market failures.
func TestRetryBudget503(t *testing.T) {
	m := rangeMarket(t, "acct")
	// A caller that always fails forces the failover/retry path; with the
	// budget disabled at base 0... use federation? Simpler: assert the
	// mapping directly through the exported error.
	_ = m
	if got := daemon.StatusOfError(payless.ErrRetryBudget); got != http.StatusServiceUnavailable {
		t.Fatalf("statusOf(ErrRetryBudget) = %d, want 503", got)
	}
	if got := daemon.StatusOfError(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Fatalf("statusOf(DeadlineExceeded) = %d, want 504", got)
	}
	if got := daemon.StatusOfError(fmt.Errorf("wrapped: %w", payless.ErrRetryBudget)); got != http.StatusServiceUnavailable {
		t.Fatalf("statusOf(wrapped ErrRetryBudget) = %d, want 503", got)
	}
}
