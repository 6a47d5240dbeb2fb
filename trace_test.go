package payless

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// traceSetup starts a live HTTP market and opens a tracing client against
// it at the given fetch concurrency.
func traceSetup(t *testing.T, key string, conc int) (*Client, *market.Market, *httptest.Server, *workload.WHW) {
	t.Helper()
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 11, Countries: 4, StationsPerCountry: 12, CitiesPerCountry: 3,
		Days: 12, StartDate: 20140601, Zips: 30, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 50, 2.0); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount(key)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	client, err := OpenHTTP(srv.URL, key, []*catalog.Table{w.ZipMap},
		WithTracer(&CollectTracer{}),
		WithFetchConcurrency(conc),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	return client, m, srv, w
}

// TestTraceTransactionOracle is the acceptance oracle: for a traced query,
// the per-call transaction sum in Result.Trace equals Report.Transactions
// exactly — at serial and at parallel fetch concurrency — and the market's
// /metrics endpoint reports the same cumulative total.
func TestTraceTransactionOracle(t *testing.T) {
	for _, conc := range []int{1, 8} {
		t.Run(fmt.Sprintf("conc=%d", conc), func(t *testing.T) {
			key := fmt.Sprintf("oracle-%d", conc)
			client, _, srv, w := traceSetup(t, key, conc)

			queries := []string{
				fmt.Sprintf("SELECT * FROM Weather WHERE Country IN ('United States', 'China', 'India') AND Date >= %d AND Date <= %d",
					w.Dates[0], w.Dates[5]),
				fmt.Sprintf("SELECT City, AVG(Temperature) FROM Station, Weather "+
					"WHERE Station.Country = Weather.Country = 'United States' AND Weather.Date >= %d AND Weather.Date <= %d "+
					"AND Station.StationID = Weather.StationID GROUP BY City",
					w.Dates[0], w.Dates[8]),
			}
			var total int64
			for _, sql := range queries {
				res, err := client.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				tr := res.Trace
				if tr == nil {
					t.Fatal("tracing enabled but Result.Trace is nil")
				}
				if got := tr.CallTransactions(); got != res.Report.Transactions {
					t.Errorf("trace transaction sum %d != report %d", got, res.Report.Transactions)
				}
				if int64(len(tr.Calls)) != res.Report.Calls {
					t.Errorf("trace has %d calls, report %d", len(tr.Calls), res.Report.Calls)
				}
				if tr.SQL != sql {
					t.Errorf("trace SQL %q", tr.SQL)
				}
				for _, want := range []string{"parse", "bind", "optimize", "execute"} {
					found := false
					for _, sp := range tr.Spans {
						if sp.Name == want {
							found = true
						}
					}
					if !found {
						t.Errorf("missing span %q in %+v", want, tr.Spans)
					}
				}
				if desc := tr.Describe(); !strings.Contains(desc, "plan:") || !strings.Contains(desc, "execute") {
					t.Errorf("Describe output: %q", desc)
				}
				total += res.Report.Transactions
			}

			// The seller-side endpoint must agree with the buyer's cumulative bill.
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := fmt.Sprintf("market_transactions_total %d", total)
			if !strings.Contains(string(body), want) {
				t.Errorf("market /metrics missing %q:\n%s", want, body)
			}

			// Buyer-side metrics agree too.
			snap := client.Metrics()
			if snap.Transactions != total || snap.Queries != int64(len(queries)) {
				t.Errorf("client metrics %+v, want %d transactions over %d queries", snap, total, len(queries))
			}
			var buf strings.Builder
			client.WriteMetrics(&buf)
			if !strings.Contains(buf.String(), fmt.Sprintf("payless_transactions_total %d", total)) {
				t.Errorf("payless metrics rendering:\n%s", buf.String())
			}
		})
	}
}

// TestTraceStoreHit checks semantic-store reuse shows up in the trace: a
// repeated query makes no market calls and records a store hit.
func TestTraceStoreHit(t *testing.T) {
	client, _, _, w := traceSetup(t, "storehit", 4)
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[6])
	first, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Trace.Calls) == 0 {
		t.Fatal("first run should pay the market")
	}
	second, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	tr := second.Trace
	if len(tr.Calls) != 0 || second.Report.Transactions != 0 {
		t.Fatalf("repeat should be free: %d calls, %d transactions", len(tr.Calls), second.Report.Transactions)
	}
	if tr.StoreHits == 0 {
		t.Error("repeat served from the store must record a store hit")
	}
	if tr.StoreHitRows == 0 {
		t.Error("store hit should account the rows served locally")
	}
	snap := client.Metrics()
	if snap.StoreHits == 0 {
		t.Errorf("store hits must reach client metrics: %+v", snap)
	}
}

// TestStoreHitMetricsUntraced: the store-reuse counters come from the
// engine, so an untraced client reports exactly what a traced one does on
// the same workload.
func TestStoreHitMetricsUntraced(t *testing.T) {
	traced, _, w := testSetup(t, func(c *Config) { c.Tracer = &CollectTracer{} })
	untraced, _, _ := testSetup(t, nil)
	var sqls []string
	for _, win := range [][2]int{{0, 6}, {0, 6}, {2, 9}} {
		sqls = append(sqls, fmt.Sprintf(
			"SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
			w.Dates[win[0]], w.Dates[win[1]]))
	}
	for _, c := range []*Client{traced, untraced} {
		for _, sql := range sqls {
			if _, err := c.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, got := traced.Metrics(), untraced.Metrics()
	if want.StoreHits == 0 || want.StoreHitRows == 0 {
		t.Fatalf("traced client reports no store reuse: %d hits, %d rows", want.StoreHits, want.StoreHitRows)
	}
	if got.StoreHits != want.StoreHits || got.StoreHitRows != want.StoreHitRows {
		t.Errorf("untraced client: %d hits, %d rows; traced: %d hits, %d rows",
			got.StoreHits, got.StoreHitRows, want.StoreHits, want.StoreHitRows)
	}
}

// TestTraceReproducesSQRAblation rebuilds the paper's Fig. 10-style
// "PayLess vs PayLess w/o SQR" comparison using nothing but Trace output:
// cumulative spend is summed from per-call records (never from Report),
// and the store's contribution is read off the trace's store-hit fields.
// SQR must spend strictly less across a repeating workload, and the
// savings must be visible as store hits in the traces.
func TestTraceReproducesSQRAblation(t *testing.T) {
	spendFromTraces := func(opts ...Option) (total int64, storeHits int) {
		t.Helper()
		w := workload.GenerateWHW(workload.WHWConfig{
			Seed: 11, Countries: 4, StationsPerCountry: 12, CitiesPerCountry: 3,
			Days: 12, StartDate: 20140601, Zips: 30, MaxRank: 100,
		})
		m := market.New()
		if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
			t.Fatal(err)
		}
		m.RegisterAccount("abl")
		client, err := Open(Config{
			Tables: append(m.ExportCatalog(), w.ZipMap),
			Caller: market.AccountCaller{Market: m, Key: "abl"},
		}, append(opts, WithTracer(&CollectTracer{}))...)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
			t.Fatal(err)
		}
		// Overlapping windows: the second and third queries re-touch data
		// the first one paid for.
		for _, win := range [][2]int{{0, 7}, {2, 9}, {0, 9}} {
			res, err := client.Query(fmt.Sprintf(
				"SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
				w.Dates[win[0]], w.Dates[win[1]]))
			if err != nil {
				t.Fatal(err)
			}
			total += res.Trace.CallTransactions()
			storeHits += res.Trace.StoreHits
		}
		return total, storeHits
	}
	plSpend, plHits := spendFromTraces()
	nsSpend, nsHits := spendFromTraces(WithConsistency(Strong()))
	t.Logf("trace-summed spend: PL %d (%d store hits), w/o SQR %d (%d store hits)",
		plSpend, plHits, nsSpend, nsHits)
	if plSpend >= nsSpend {
		t.Errorf("SQR ablation from traces: PayLess %d transactions, w/o SQR %d — want strictly less", plSpend, nsSpend)
	}
	if plHits == 0 {
		t.Error("the SQR savings must appear as store hits in the traces")
	}
	if nsHits != 0 {
		t.Errorf("w/o SQR the trace must show no store hits, got %d", nsHits)
	}
}

// TestUntracedQueryHasNoTrace pins the default: no Tracer, no trace, and
// metrics still count the query.
func TestUntracedQueryHasNoTrace(t *testing.T) {
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 3, Countries: 2, StationsPerCountry: 8, CitiesPerCountry: 2,
		Days: 8, StartDate: 20140601, Zips: 20, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("plain")
	client, err := Open(Config{
		Tables: append(m.ExportCatalog(), w.ZipMap),
		Caller: market.AccountCaller{Market: m, Key: "plain"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	res, err := client.Query(fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("untraced query must not carry a trace")
	}
	if snap := client.Metrics(); snap.Queries != 1 {
		t.Errorf("metrics must count untraced queries: %+v", snap)
	}
}

// noopTracer opts every query out of tracing: Begin returns nil, so the
// engine runs the same nil-trace path as a client with no Tracer at all.
type noopTracer struct{}

func (noopTracer) Begin(string) *Trace { return nil }
func (noopTracer) Finish(*Trace)       {}

// TestNoopTracerAllocatesNothing is the guard on the tracing hooks: a client
// whose Tracer declines every query runs the same nil-trace path as an
// untraced one, so the fan-out workload allocates as much either way. (What
// tracing costs in time is BenchmarkFetchConcurrencyTraced's and the
// ledger's trace.overhead_ratio to measure.) The race detector makes
// sync.Pool drop items at random, which moves the counts apart by more than
// the comparison allows, so the gate runs only without it.
func TestNoopTracerAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomises sync.Pool reuse, and with it allocation counts")
	}
	env := newFanoutEnv(t, false)
	base, _ := env.replayAllocs(t, "alloc-untraced")
	declined, _ := env.replayAllocs(t, "alloc-declined", WithTracer(noopTracer{}))
	t.Logf("%v allocations a pass untraced, %v declined", base, declined)
	if !sameAllocs(base, declined) {
		t.Fatalf("a declining tracer changes the workload's allocations: %v untraced, %v declined", base, declined)
	}
}
