package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"payless"
	"payless/internal/catalog"
	"payless/internal/daemon"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/tenant"
	"payless/internal/value"
	"payless/internal/workload"
)

// rangeTable is a one-axis market table: a in [1,160], v = a*10, t = 10.
func rangeTable() *catalog.Table {
	return &catalog.Table{
		Name: "T", Dataset: "DS", Cardinality: 160,
		Schema: value.Schema{
			{Name: "a", Type: value.Int},
			{Name: "v", Type: value.Int},
		},
		Attrs: []catalog.Attribute{
			{Name: "a", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 160},
			{Name: "v", Type: value.Int, Binding: catalog.Output},
		},
	}
}

func rangeMarket(t *testing.T, accounts ...string) *market.Market {
	t.Helper()
	m := market.New()
	ds, err := m.AddDataset("DS", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 0, 160)
	for a := int64(1); a <= 160; a++ {
		rows = append(rows, value.Row{value.NewInt(a), value.NewInt(a * 10)})
	}
	if err := ds.AddTable(rangeTable(), rows); err != nil {
		t.Fatal(err)
	}
	for _, acct := range accounts {
		m.RegisterAccount(acct)
	}
	return m
}

func openClient(t *testing.T, m *market.Market, acct string, opts ...payless.Option) *payless.Client {
	t.Helper()
	client, err := payless.Open(payless.Config{
		Tables:               m.ExportCatalog(),
		Caller:               market.AccountCaller{Market: m, Key: acct},
		TuplesPerTransaction: map[string]int{"DS": 10},
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func newDaemon(t *testing.T, client *payless.Client, reg *tenant.Registry, mutate func(*daemon.Config)) *daemon.Server {
	t.Helper()
	cfg := daemon.Config{Client: client, Registry: reg}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// post runs one query through the daemon handler as the given tenant key and
// returns status, decoded body (on 200) and the raw response.
func post(h http.Handler, key, sql string) (int, *daemon.QueryResponse, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(sql))
	req.Header.Set("Authorization", "Bearer "+key)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec.Code, nil, rec
	}
	var out daemon.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		panic(fmt.Sprintf("decode daemon response: %v", err))
	}
	return rec.Code, &out, rec
}

func meterOf(t *testing.T, m *market.Market, acct string) market.Meter {
	t.Helper()
	meter, ok := m.MeterOf(acct)
	if !ok {
		t.Fatalf("no meter for account %q", acct)
	}
	return meter
}

// TestDaemonDifferentialOracleWHW is the PR's differential oracle: the same
// WHW query sequence run by a single tenant through the daemon and by an
// in-process Client must be indistinguishable — same rows, same per-query
// bills and estimates, same seller meter, and byte-identical semantic-store
// geometry.
func TestDaemonDifferentialOracleWHW(t *testing.T) {
	cfg := workload.WHWConfig{
		Seed: 7, Countries: 4, StationsPerCountry: 40, CitiesPerCountry: 8,
		Days: 30, StartDate: 20140601, Zips: 60, MaxRank: 100,
	}
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1.0); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("direct")
	m.RegisterAccount("daemon")

	reg, err := tenant.NewRegistry(0, tenant.Config{Name: "solo", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	open := func(acct string, opts ...payless.Option) *payless.Client {
		client, err := payless.Open(payless.Config{
			Tables: m.ExportCatalog(),
			Caller: market.AccountCaller{Market: m, Key: acct},
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return client
	}
	direct := open("direct")
	shared := open("daemon", payless.WithAdmitter(reg))
	defer direct.Close()
	defer shared.Close()
	h := newDaemon(t, shared, reg, nil).Handler()

	queries := []string{
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[2], w.Dates[8]),
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[4], w.Dates[6]), // inside: free
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'India' AND Date >= %d AND Date <= %d", w.Dates[0], w.Dates[5]),
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[0], w.Dates[10]), // widen
	}
	for i, sql := range queries {
		want, err := direct.Query(sql)
		if err != nil {
			t.Fatalf("query %d direct: %v", i, err)
		}
		code, got, rec := post(h, "k", sql)
		if code != http.StatusOK {
			t.Fatalf("query %d daemon: HTTP %d: %s", i, code, rec.Body.String())
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("query %d: daemon rows diverge from direct client (%d vs %d rows)", i, len(got.Rows), len(want.Rows))
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) {
			t.Fatalf("query %d: columns %v vs %v", i, got.Columns, want.Columns)
		}
		if got.Transactions != want.Report.Transactions || got.Calls != want.Report.Calls ||
			got.Records != want.Report.Records || got.Price != want.Report.Price {
			t.Fatalf("query %d: daemon bill {c=%d r=%d t=%d p=%g} vs direct %+v",
				i, got.Calls, got.Records, got.Transactions, got.Price, want.Report)
		}
		if got.EstTransactions != want.EstTransactions {
			t.Fatalf("query %d: estimate %d vs %d", i, got.EstTransactions, want.EstTransactions)
		}
	}

	if md, mh := meterOf(t, m, "direct"), meterOf(t, m, "daemon"); md != mh {
		t.Fatalf("seller meters diverge: direct %+v, daemon %+v", md, mh)
	}
	var bufDirect, bufDaemon bytes.Buffer
	if err := direct.SaveStore(&bufDirect); err != nil {
		t.Fatal(err)
	}
	if err := shared.SaveStore(&bufDaemon); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeSnapshot(t, bufDirect.Bytes()), normalizeSnapshot(t, bufDaemon.Bytes())) {
		t.Fatalf("semantic store geometry diverges: %d vs %d snapshot bytes",
			bufDirect.Len(), bufDaemon.Len())
	}
	// The tenant ledger attributes the whole spend to the lone tenant.
	solo, _ := reg.Lookup("solo")
	if solo.Spend() != meterOf(t, m, "daemon").Transactions {
		t.Fatalf("tenant ledger %d, seller meter %d", solo.Spend(), meterOf(t, m, "daemon").Transactions)
	}
}

// normalizeSnapshot zeroes the record timestamps in a SaveStore snapshot:
// two clients that bought the same boxes at different wall-clock instants
// still have identical store geometry.
func normalizeSnapshot(t *testing.T, b []byte) []byte {
	t.Helper()
	var f map[string]any
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	tables, _ := f["tables"].([]any)
	for _, tb := range tables {
		entries, _ := tb.(map[string]any)["entries"].([]any)
		for _, e := range entries {
			e.(map[string]any)["at"] = ""
		}
	}
	out, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("re-encode snapshot: %v", err)
	}
	return out
}

// TestDaemonFirstPayerAttribution is the shared-store billing test: tenant A
// purchases a box, then B and C concurrently query strictly inside it. B and
// C must bill zero, the seller meter must not move, and the per-tenant spend
// metric must attribute the whole purchase to A.
func TestDaemonFirstPayerAttribution(t *testing.T) {
	m := rangeMarket(t, "acct")
	reg, err := tenant.NewRegistry(0,
		tenant.Config{Name: "a", Key: "ka"},
		tenant.Config{Name: "b", Key: "kb"},
		tenant.Config{Name: "c", Key: "kc"},
	)
	if err != nil {
		t.Fatal(err)
	}
	client := openClient(t, m, "acct", payless.WithAdmitter(reg))
	defer client.Close()
	h := newDaemon(t, client, reg, nil).Handler()

	code, res, rec := post(h, "ka", "SELECT v FROM T WHERE a >= 1 AND a <= 80")
	if code != http.StatusOK {
		t.Fatalf("tenant a: HTTP %d: %s", code, rec.Body.String())
	}
	if res.Transactions != 8 || len(res.Rows) != 80 {
		t.Fatalf("tenant a: %d rows, %d transactions; want 80 rows, 8 transactions", len(res.Rows), res.Transactions)
	}
	after := meterOf(t, m, "acct")

	// B and C read inside A's box at the same time.
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for _, q := range []struct{ key, sql string }{
		{"kb", "SELECT v FROM T WHERE a >= 10 AND a <= 30"},
		{"kc", "SELECT v FROM T WHERE a >= 40 AND a <= 60"},
	} {
		wg.Add(1)
		go func(key, sql string) {
			defer wg.Done()
			code, res, rec := post(h, key, sql)
			if code != http.StatusOK {
				errs <- fmt.Sprintf("%s: HTTP %d: %s", key, code, rec.Body.String())
				return
			}
			if res.Transactions != 0 || res.Calls != 0 || res.Price != 0 {
				errs <- fmt.Sprintf("%s billed {c=%d t=%d p=%g} for a covered read", key, res.Calls, res.Transactions, res.Price)
			}
		}(q.key, q.sql)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if final := meterOf(t, m, "acct"); final != after {
		t.Fatalf("seller meter moved on covered reads: %+v -> %+v", after, final)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	metrics := rec.Body.String()
	for _, want := range []string{
		`paylessd_tenant_spend_total{tenant="a"} 8`,
		`paylessd_tenant_spend_total{tenant="b"} 0`,
		`paylessd_tenant_spend_total{tenant="c"} 0`,
		`paylessd_global_spend_total 8`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDaemonAdmissionControl drives the three rejection gates: bad key 401,
// empty rate bucket 429 + Retry-After, and the in-flight bound 429.
func TestDaemonAdmissionControl(t *testing.T) {
	m := rangeMarket(t, "acct")

	t.Run("auth", func(t *testing.T) {
		client := openClient(t, m, "acct")
		defer client.Close()
		reg, _ := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka"})
		h := newDaemon(t, client, reg, nil).Handler()
		code, _, _ := post(h, "wrong", "SELECT v FROM T WHERE a >= 1 AND a <= 10")
		if code != http.StatusUnauthorized {
			t.Fatalf("bad key: HTTP %d, want 401", code)
		}
	})

	t.Run("rate-limit", func(t *testing.T) {
		client := openClient(t, m, "acct")
		defer client.Close()
		reg, _ := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka", RatePerSec: 1, Burst: 1})
		now := time.Unix(1700000000, 0)
		h := newDaemon(t, client, reg, func(c *daemon.Config) {
			c.Now = func() time.Time { return now }
			c.Jitter = func() float64 { return 0.5 } // midpoint: no Retry-After jitter
		}).Handler()
		if code, _, rec := post(h, "ka", "SELECT v FROM T WHERE a >= 1 AND a <= 10"); code != http.StatusOK {
			t.Fatalf("burst token: HTTP %d: %s", code, rec.Body.String())
		}
		code, _, rec := post(h, "ka", "SELECT v FROM T WHERE a >= 1 AND a <= 10")
		if code != http.StatusTooManyRequests {
			t.Fatalf("empty bucket: HTTP %d, want 429", code)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "1" {
			t.Fatalf("Retry-After %q, want \"1\"", ra)
		}
		now = now.Add(time.Second)
		if code, _, rec := post(h, "ka", "SELECT v FROM T WHERE a >= 11 AND a <= 20"); code != http.StatusOK {
			t.Fatalf("refilled bucket: HTTP %d: %s", code, rec.Body.String())
		}
	})

	t.Run("inflight", func(t *testing.T) {
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
		h := newDaemon(t, client, reg, func(c *daemon.Config) {
			c.MaxInflight = 1
			c.RetryAfter = 3 * time.Second
			c.Jitter = func() float64 { return 0.5 } // midpoint: no Retry-After jitter
		}).Handler()

		done := make(chan int, 1)
		go func() {
			code, _, _ := post(h, "ka", "SELECT v FROM T WHERE a >= 101 AND a <= 120")
			done <- code
		}()
		deadline := time.Now().Add(10 * time.Second)
		for gate.arrivals() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("first query never reached the wire")
			}
			time.Sleep(time.Millisecond)
		}
		code, _, rec := post(h, "ka", "SELECT v FROM T WHERE a >= 121 AND a <= 140")
		if code != http.StatusTooManyRequests {
			t.Fatalf("second query with 1 slot busy: HTTP %d, want 429", code)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "3" {
			t.Fatalf("Retry-After %q, want \"3\"", ra)
		}
		close(release)
		if code := <-done; code != http.StatusOK {
			t.Fatalf("gated query: HTTP %d, want 200", code)
		}
	})
}

// gatedCaller blocks wire calls until the gate closes, counting arrivals.
type gatedCaller struct {
	inner market.Caller

	mu      sync.Mutex
	gate    chan struct{}
	arrived int64
}

func (g *gatedCaller) arrivals() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.arrived
}

// setGate makes later calls wait for gate instead.
func (g *gatedCaller) setGate(gate chan struct{}) {
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
}

func (g *gatedCaller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	g.mu.Lock()
	g.arrived++
	gate := g.gate
	g.mu.Unlock()
	select {
	case <-gate:
	case <-ctx.Done():
		return market.Result{}, ctx.Err()
	}
	return g.inner.Call(ctx, q)
}

// TestDaemonFlatMeterAtN4 is the shared store's load gate: four tenants
// replaying the same queries through one daemon bill at most 1.2x what one
// tenant bills, and at every N the tenant ledgers sum to the seller meter
// (first-payer attribution loses and double-books nothing). A gate holds
// each round's wire call open until every other tenant has joined the
// flight, so N tenants buying the same box at once is a fact of the test
// rather than a timing accident.
func TestDaemonFlatMeterAtN4(t *testing.T) {
	var single int64
	for _, n := range []int{1, 4} {
		acct := fmt.Sprintf("flat-%d", n)
		m := rangeMarket(t, acct)
		cfgs := make([]tenant.Config, n)
		for i := range cfgs {
			cfgs[i] = tenant.Config{Name: fmt.Sprintf("t%02d", i), Key: fmt.Sprintf("key-%02d", i)}
		}
		reg, err := tenant.NewRegistry(0, cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		gc := &gatedCaller{inner: market.AccountCaller{Market: m, Key: acct}}
		client, err := payless.Open(payless.Config{
			Tables:               m.ExportCatalog(),
			Caller:               gc,
			TuplesPerTransaction: map[string]int{"DS": 10},
			FetchConcurrency:     4,
		}, payless.WithAdmitter(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		h := newDaemon(t, client, reg, func(c *daemon.Config) { c.MaxInflight = 4 * n }).Handler()
		for _, lo := range []int{1, 31, 61} {
			sql := fmt.Sprintf("SELECT v FROM T WHERE a >= %d AND a <= %d", lo, lo+29)
			gate := make(chan struct{})
			gc.setGate(gate)
			hitsBefore := client.Metrics().SchedSingleflightHits
			var wg sync.WaitGroup
			for _, c := range cfgs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if code, _, rec := post(h, c.Key, sql); code != http.StatusOK {
						t.Errorf("tenant %s: HTTP %d: %s", c.Name, code, rec.Body.String())
					}
				}()
			}
			for deadline := time.Now().Add(10 * time.Second); client.Metrics().SchedSingleflightHits < hitsBefore+int64(n-1); {
				if time.Now().After(deadline) {
					close(gate)
					t.Fatalf("n=%d: tenants never overlapped on one flight", n)
				}
				time.Sleep(time.Millisecond)
			}
			close(gate)
			wg.Wait()
		}

		billed, ledger := meterOf(t, m, acct).Transactions, int64(0)
		for _, c := range cfgs {
			tn, _ := reg.Lookup(c.Name)
			ledger += tn.Spend()
		}
		t.Logf("n=%d: seller billed %d, tenant ledgers sum to %d", n, billed, ledger)
		if ledger != billed {
			t.Fatalf("n=%d: tenant ledgers sum to %d but the seller billed %d", n, ledger, billed)
		}
		if n == 1 {
			single = billed
			if single == 0 {
				t.Fatal("single tenant billed nothing — the test bought no data")
			}
		}
		if float64(billed) > 1.2*float64(single) {
			t.Fatalf("n=%d tenants billed %d, over the 1.2x gate on the single-tenant bill %d", n, billed, single)
		}
	}
}

// TestDaemonBudgetRejections maps budget errors onto 402: a tenant whose
// budget can't cover the estimate, and the daemon-wide global budget.
func TestDaemonBudgetRejections(t *testing.T) {
	m := rangeMarket(t, "acct")
	reg, err := tenant.NewRegistry(10,
		tenant.Config{Name: "small", Key: "ks", Budget: 2},
		tenant.Config{Name: "big", Key: "kg"},
	)
	if err != nil {
		t.Fatal(err)
	}
	client := openClient(t, m, "acct", payless.WithAdmitter(reg))
	defer client.Close()
	h := newDaemon(t, client, reg, nil).Handler()

	// 80 rows / t=10 estimates 8 transactions > small's budget of 2.
	code, _, rec := post(h, "ks", "SELECT v FROM T WHERE a >= 1 AND a <= 80")
	if code != http.StatusPaymentRequired {
		t.Fatalf("tenant over budget: HTTP %d (%s), want 402", code, rec.Body.String())
	}
	// big passes its own (unlimited) budget but 160 rows = 16 > global 10.
	code, _, rec = post(h, "kg", "SELECT v FROM T WHERE a >= 1 AND a <= 160")
	if code != http.StatusPaymentRequired {
		t.Fatalf("global over budget: HTTP %d (%s), want 402", code, rec.Body.String())
	}
	if spent := reg.GlobalSpend(); spent != 0 {
		t.Fatalf("rejected queries booked %d spend", spent)
	}
	// Bad SQL maps to 400, not 5xx.
	if code, _, _ := post(h, "kg", "SELEC nonsense"); code != http.StatusBadRequest {
		t.Fatalf("parse error: HTTP %d, want 400", code)
	}
}

// TestDaemonUnknownColumnIs400AndFree: a statement naming a column no FROM
// table has fails at bind, so the tenant gets 400 and nothing is bought.
func TestDaemonUnknownColumnIs400AndFree(t *testing.T) {
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 7, Countries: 2, StationsPerCountry: 8, CitiesPerCountry: 2,
		Days: 8, StartDate: 20140601, Zips: 20, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1.0); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("acct")
	reg, err := tenant.NewRegistry(0, tenant.Config{Name: "solo", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	client, err := payless.Open(payless.Config{
		Tables: m.ExportCatalog(),
		Caller: market.AccountCaller{Market: m, Key: "acct"},
	}, payless.WithAdmitter(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	h := newDaemon(t, client, reg, nil).Handler()

	sql := fmt.Sprintf("SELECT NoSuchCol FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[0], w.Dates[5])
	if code, _, rec := post(h, "k", sql); code != http.StatusBadRequest {
		t.Fatalf("unknown column: HTTP %d (%s), want 400", code, rec.Body.String())
	}
	solo, _ := reg.Lookup("solo")
	if spent := solo.Spend(); spent != 0 {
		t.Errorf("tenant booked %d transactions", spent)
	}
	if meter := meterOf(t, m, "acct"); meter != (market.Meter{}) {
		t.Errorf("seller meter %+v, want nothing billed", meter)
	}
}
