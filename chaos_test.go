package payless

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/chaos"
	"payless/internal/connector"
	"payless/internal/federation"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// The chaos suite drives the full HTTP stack — federation retries, the
// market's replay ledger, engine salvage — under seeded fault schedules and
// checks the billing invariants of ROADMAP's failure model:
//
//  1. billing conservation: a run with faults bills exactly what a clean
//     run bills (zero double-billed transactions);
//  2. correctness: faulted runs return the same rows as clean runs;
//  3. the semantic store never under-covers: a second pass of the same
//     queries is fully served from the store and bills nothing;
//  4. salvage: a query that dies mid-fan-out banks its completed calls, so
//     the retry pays only for the remainder.

// smallPages shrinks the HTTP transport page size so modest tables exercise
// multi-page fetches, restoring it when the test finishes.
func smallPages(t *testing.T, n int) {
	t.Helper()
	old := market.PageRows
	market.PageRows = n
	t.Cleanup(func() { market.PageRows = old })
}

// buildChaosMarket installs a small WHW workload into a fresh market with
// one registered account.
func buildChaosMarket(t *testing.T) (*market.Market, *workload.WHW) {
	t.Helper()
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 11, Countries: 2, StationsPerCountry: 16, CitiesPerCountry: 4,
		Days: 10, StartDate: 20140601, Zips: 20, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("acct")
	return m, w
}

// chaosRetry is the suites' retry schedule: 13 attempts per page, backing
// off 1 → 5 ms, so injected faults are survivable without slowing the suite
// down.
var chaosRetry = federation.Retry{Attempts: 13, Base: time.Millisecond, Max: 5 * time.Millisecond}

// openChaosClient opens a client over HTTP with an aggressive retry budget
// and fast backoff, so injected faults are survivable without slowing the
// suite down.
func openChaosClient(t *testing.T, baseURL string, tables *workload.WHW, m *market.Market) *Client {
	t.Helper()
	client, err := Open(Config{
		Tables:                      m.ExportCatalog(),
		Caller:                      connector.New(baseURL, "acct"),
		DefaultTuplesPerTransaction: 100,
		FetchConcurrency:            8,
		retry:                       chaosRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// chaosQueries is the workload: direct scans (single- and multi-page), an
// IN-list fan-out, a bind join, and an aggregate.
func chaosQueries(w *workload.WHW) []string {
	d := w.Dates
	return []string{
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", d[0], d[4]),
		"SELECT City, StationID FROM Station WHERE Country = 'Country01'",
		fmt.Sprintf("SELECT Temperature FROM Station, Weather "+
			"WHERE City = 'Seattle' AND Station.Country = Weather.Country = 'United States' "+
			"AND Date >= %d AND Date <= %d AND Station.StationID = Weather.StationID", d[0], d[9]),
		fmt.Sprintf("SELECT * FROM Weather WHERE Country IN ('United States', 'Country01') AND Date = %d", d[7]),
		fmt.Sprintf("SELECT AVG(Temperature) FROM Weather WHERE Country = 'Country01' AND Date >= %d AND Date <= %d", d[5], d[9]),
	}
}

// sortedRows renders a result's rows in a canonical order for comparison.
func sortedRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestChaosInvariants(t *testing.T) {
	smallPages(t, 40)

	// Reference: one clean run establishes the expected rows and the
	// ground-truth bill at the seller's meter.
	mClean, w := buildChaosMarket(t)
	srvClean := httptest.NewServer(mClean.Handler())
	defer srvClean.Close()
	clean := openChaosClient(t, srvClean.URL, w, mClean)
	queries := chaosQueries(w)
	cleanResults := make([][]string, len(queries))
	for i, q := range queries {
		res, err := clean.Query(q)
		if err != nil {
			t.Fatalf("clean run query %d: %v", i, err)
		}
		cleanResults[i] = sortedRows(res)
	}
	cleanMeter, _ := mClean.MeterOf("acct")
	if cleanMeter.Transactions == 0 {
		t.Fatal("clean run billed nothing; the invariants below would be vacuous")
	}

	var totalInjected int64
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			m, _ := buildChaosMarket(t)
			s := chaos.NewSchedule(seed).
				Rate(chaos.Reject, 0.07).
				Rate(chaos.ServerError, 0.05).
				Rate(chaos.Drop, 0.07).
				Rate(chaos.Truncate, 0.06)
			srv := httptest.NewServer(chaos.Handler(m.Handler(), s))
			defer srv.Close()
			client := openChaosClient(t, srv.URL, w, m)

			for i, q := range queries {
				res, err := client.Query(q)
				if err != nil {
					t.Fatalf("query %d under faults: %v", i, err)
				}
				if got := sortedRows(res); !sameRows(got, cleanResults[i]) {
					t.Errorf("query %d rows diverged under faults: %d rows vs clean %d",
						i, len(got), len(cleanResults[i]))
				}
			}
			// Invariant 1: the seller's meter — the billing ground truth —
			// matches the clean run exactly. Drop/Truncate faults billed
			// their calls, so this only holds if every retry was replayed
			// from the idempotency ledger rather than billed again.
			meter, _ := m.MeterOf("acct")
			if meter.Transactions != cleanMeter.Transactions || meter.Calls != cleanMeter.Calls {
				t.Errorf("billing diverged under faults: %d calls/%d transactions, clean %d/%d",
					meter.Calls, meter.Transactions, cleanMeter.Calls, cleanMeter.Transactions)
			}
			// Invariant 3: a second pass is fully covered by the semantic
			// store. Any additional billing means the store claimed rows it
			// did not have — or failed to record rows that were paid for.
			for i, q := range queries {
				res, err := client.Query(q)
				if err != nil {
					t.Fatalf("second pass query %d: %v", i, err)
				}
				if got := sortedRows(res); !sameRows(got, cleanResults[i]) {
					t.Errorf("second pass query %d rows diverged", i)
				}
			}
			meter2, _ := m.MeterOf("acct")
			if meter2.Transactions != meter.Transactions {
				t.Errorf("second pass re-billed %d transactions: semstore under-covered",
					meter2.Transactions-meter.Transactions)
			}
			totalInjected += s.TotalInjected()
		})
	}
	// An individual seed may legitimately draw zero faults; across all 20
	// the schedules must have fired plenty, or the suite proved nothing.
	if totalInjected < 20 {
		t.Errorf("only %d faults injected across all seeds; rates are miswired", totalInjected)
	}
}

// TestCallRetriesCountedTracedOrNot: payless_call_retries_total counts the
// transport retries of every wire call whether or not a Tracer is installed
// (the daemons run without one). The same seeded 5xx schedule drives an
// untraced and a traced client through the same queries; each injected 5xx
// costs exactly one retry, and both clients must count them all.
func TestCallRetriesCountedTracedOrNot(t *testing.T) {
	smallPages(t, 40)
	var counted [2]int64
	for i, tracer := range []Tracer{nil, CollectTracer{}} {
		m, w := buildChaosMarket(t)
		s := chaos.NewSchedule(2).Rate(chaos.ServerError, 0.25)
		srv := httptest.NewServer(chaos.Handler(m.Handler(), s))
		defer srv.Close()
		client, err := Open(Config{
			Tables:                      m.ExportCatalog(),
			Caller:                      connector.New(srv.URL, "acct"),
			DefaultTuplesPerTransaction: 100,
			FetchConcurrency:            1,
			Tracer:                      tracer,
			retry:                       chaosRetry,
		})
		if err != nil {
			t.Fatal(err)
		}
		var traced int64
		for _, q := range chaosQueries(w) {
			res, err := client.Query(q)
			if err != nil {
				t.Fatalf("tracer %T: %v", tracer, err)
			}
			traced += res.Trace.Retries()
		}
		counted[i] = client.Metrics().Retries
		if injected := s.Injected()[chaos.ServerError]; counted[i] != injected {
			t.Errorf("tracer %T: %d retries counted, %d 5xx injected", tracer, counted[i], injected)
		}
		if tracer != nil && traced != counted[i] {
			t.Errorf("traces sum %d retries, metrics count %d", traced, counted[i])
		}
	}
	if counted[0] == 0 || counted[0] != counted[1] {
		t.Fatalf("retries counted untraced %d, traced %d: want the same non-zero count", counted[0], counted[1])
	}
	t.Logf("%d retries counted, traced or not", counted[0])
}

// TestChaosSalvageRetryPaysRemainder pins a persistent fault onto one call
// of a multi-call fan-out: the query fails, but its completed calls are
// salvaged into the semantic store and their spend is accounted, so the
// retry bills only the missing remainder — fewer transactions than the
// failed first attempt banked, and first+retry never exceeds a clean run.
func TestChaosSalvageRetryPaysRemainder(t *testing.T) {
	smallPages(t, 40)
	m, w := buildChaosMarket(t)
	s := chaos.NewSchedule(1)
	// The victim is the first Weather data call observed; it fails with 500
	// forever (every retry included, since retries reuse the same path).
	var mu sync.Mutex
	victim := ""
	s.Target(func(key string) bool {
		if !strings.Contains(key, "/Weather") {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if victim == "" {
			victim = key
		}
		return key == victim
	}, chaos.ServerError, -1)
	srv := httptest.NewServer(chaos.Handler(m.Handler(), s))
	defer srv.Close()
	client := openChaosClient(t, srv.URL, w, m)

	// Four pairwise-disjoint date slices fan out as four independent calls.
	d := w.Dates
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date IN (%d, %d, %d, %d)",
		d[0], d[2], d[4], d[6])
	_, err := client.Query(sql)
	if err == nil {
		t.Fatal("query must fail while the victim call keeps returning 500")
	}
	if !errors.Is(err, ErrExecute) {
		t.Fatalf("want ErrExecute taxonomy, got %v", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want PartialError, got %v", err)
	}
	if pe.Failed == 0 || pe.Salvaged == 0 {
		t.Fatalf("want both failed and salvaged calls, got %+v", pe)
	}
	if pe.Billed.Transactions == 0 {
		t.Fatal("salvaged calls should have billed transactions")
	}
	// The failed query's spend is folded into the client totals and the
	// failed-spend metrics: the bill never under-reports.
	if spend := client.TotalSpend(); spend.Transactions != pe.Billed.Transactions {
		t.Errorf("failed-query spend not in totals: %d vs %d", spend.Transactions, pe.Billed.Transactions)
	}
	if snap := client.Metrics(); snap.FailedQuerySpendTransactions != pe.Billed.Transactions {
		t.Errorf("failed-spend metric = %d, want %d", snap.FailedQuerySpendTransactions, pe.Billed.Transactions)
	}

	// Market back up: the retry pays only for the victim's slice.
	s.Disarm()
	res, err := client.Query(sql)
	if err != nil {
		t.Fatalf("retry after recovery: %v", err)
	}
	if res.Report.Transactions >= pe.Billed.Transactions {
		t.Errorf("retry billed %d transactions, want fewer than the first attempt's %d",
			res.Report.Transactions, pe.Billed.Transactions)
	}
	// And first+retry must not exceed a clean run: salvage means nothing
	// already paid for is bought twice.
	mRef, _ := buildChaosMarket(t)
	srvRef := httptest.NewServer(mRef.Handler())
	defer srvRef.Close()
	ref := openChaosClient(t, srvRef.URL, w, mRef)
	cleanRes, err := ref.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := pe.Billed.Transactions + res.Report.Transactions; got > cleanRes.Report.Transactions {
		t.Errorf("first+retry billed %d transactions, clean run %d: salvaged data was re-billed",
			got, cleanRes.Report.Transactions)
	}
}

// TestBreakerShortCircuitsDownDataset opts into circuit breaking and runs
// queries against a market that is hard-down: after the threshold of
// failures the breaker opens and the next query fails fast with
// ErrCircuitOpen, without issuing a single market call; once the market
// recovers and the cooldown elapses, a probe closes the circuit again.
func TestBreakerShortCircuitsDownDataset(t *testing.T) {
	m, w := buildChaosMarket(t)
	fc := &flakyCaller{inner: market.AccountCaller{Market: m, Key: "acct"}, failFrom: 1}
	client, err := Open(Config{
		Tables: m.ExportCatalog(),
		Caller: fc,
	}, WithCallPolicy(CallPolicy{BreakAfter: 2, Cooldown: 20 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])
	for i := 0; i < 2; i++ {
		if _, err := client.Query(sql); err == nil {
			t.Fatalf("query %d should fail against a down market", i)
		} else if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("query %d failed before the threshold was reached: %v", i, err)
		}
	}
	fc.mu.Lock()
	callsBefore := fc.calls
	fc.mu.Unlock()
	_, err = client.Query(sql)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen after threshold failures, got %v", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Skipped == 0 {
		t.Fatalf("short-circuited call should be reported as skipped: %v", err)
	}
	fc.mu.Lock()
	callsAfter := fc.calls
	fc.mu.Unlock()
	if callsAfter != callsBefore {
		t.Fatalf("open breaker issued %d market calls", callsAfter-callsBefore)
	}
	if snap := client.Metrics(); snap.BreakerOpens == 0 || snap.BreakerShortCircuits == 0 {
		t.Errorf("breaker metrics missing: opens=%d shorts=%d", snap.BreakerOpens, snap.BreakerShortCircuits)
	}

	// Market back up + cooldown elapsed: the probe call closes the circuit
	// and the query completes.
	fc.arm(-1)
	time.Sleep(30 * time.Millisecond)
	res, err := client.Query(sql)
	if err != nil {
		t.Fatalf("recovery query: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("recovery query returned no rows")
	}
	if snap := client.Metrics(); snap.BreakerProbes == 0 {
		t.Error("recovery should have gone through a half-open probe")
	}
}

// TestCancelDuringMultiPageFetch cancels a query while its only call is
// between result pages. The half-fetched call must leave no semstore entry
// — coverage is recorded only for fully delivered calls — so the retry
// returns complete results.
func TestCancelDuringMultiPageFetch(t *testing.T) {
	smallPages(t, 25)
	m, w := buildChaosMarket(t)
	var blockPages atomic.Bool
	blockPages.Store(true)
	inner := m.Handler()
	handler := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if p := r.URL.Query().Get("page"); blockPages.Load() && p != "" && p != "0" {
			// Stall every follow-up page until the client gives up.
			select {
			case <-r.Context().Done():
				return
			case <-time.After(2 * time.Second):
			}
		}
		inner.ServeHTTP(rw, r)
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()
	client := openChaosClient(t, srv.URL, w, m)

	// 10 days of one country's weather: a few hundred rows, many pages.
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[9])
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := client.QueryContext(ctx, sql)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded mid-pagination, got %v", err)
	}
	if n := client.store.StoredRowCount("Weather"); n != 0 {
		t.Fatalf("half-fetched call left %d rows in the semstore", n)
	}

	// With pages flowing again the retry must deliver the complete result —
	// which it can only do if no partial coverage was falsely recorded.
	blockPages.Store(false)
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range w.StationRows {
		if r[0].Str() == "United States" {
			want++
		}
	}
	want *= 10 // days
	if len(res.Rows) != want {
		t.Fatalf("retry returned %d rows, want %d", len(res.Rows), want)
	}
}

// TestRetryWireAttemptsPinned pins what a fault costs on the wire. The 20
// seeded schedules of TestChaosInvariants run serially (FetchConcurrency 1)
// over 40-row pages. Under chaosRetry they take 266 data requests, 55 of
// them retries, and every query succeeds; at three attempts a page, 263
// requests and 53 retries, and two queries run out of attempts. A retried
// multi-page call resumes at the page that failed, and each page gets its
// own allowance of attempts; restarting at page 0 adds requests, and a
// per-call allowance fails more queries.
func TestRetryWireAttemptsPinned(t *testing.T) {
	smallPages(t, 40)
	_, w := buildChaosMarket(t)
	for _, tc := range []struct {
		attempts                  int
		requests, retries, failed int64
	}{{chaosRetry.Attempts, 266, 55, 0}, {3, 263, 53, 2}} {
		retry := chaosRetry
		retry.Attempts = tc.attempts
		var requests, retries, failed int64
		for seed := int64(0); seed < 20; seed++ {
			m, _ := buildChaosMarket(t)
			s := chaos.NewSchedule(seed).
				Rate(chaos.Reject, 0.07).
				Rate(chaos.ServerError, 0.05).
				Rate(chaos.Drop, 0.07).
				Rate(chaos.Truncate, 0.06)
			inner := chaos.Handler(m.Handler(), s)
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				atomic.AddInt64(&requests, 1)
				inner.ServeHTTP(rw, r)
			}))
			client, err := Open(Config{
				Tables:                      m.ExportCatalog(),
				Caller:                      connector.New(srv.URL, "acct"),
				DefaultTuplesPerTransaction: 100,
				FetchConcurrency:            1,
				retry:                       retry,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range chaosQueries(w) {
				if _, err := client.Query(q); err != nil {
					failed++
				}
			}
			retries += client.Metrics().Retries
			client.Close()
			srv.Close()
		}
		if requests != tc.requests || retries != tc.retries || failed != tc.failed {
			t.Errorf("%d attempts a page: %d wire requests, %d retries, %d failed queries; want %d, %d, %d",
				tc.attempts, requests, retries, failed, tc.requests, tc.retries, tc.failed)
		}
	}
}
