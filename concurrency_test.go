package payless

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/connector"
	"payless/internal/federation"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// TestOracleConcurrencyBillParity runs the four-mode oracle workload at
// several FetchConcurrency settings and requires that every query's result
// set and bill, every client's cumulative spend, and the semantic store's
// coverage are identical to the serial (FetchConcurrency=1) engine. The
// engine plans each batch up front and merges in plan order, so parallelism
// must change wall-clock latency only — never money or state.
func TestOracleConcurrencyBillParity(t *testing.T) {
	wcfg := workload.WHWConfig{
		Seed: 17, Countries: 4, StationsPerCountry: 15, CitiesPerCountry: 4,
		Days: 25, StartDate: 20140601, Zips: 80, MaxRank: 100,
	}
	modes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"payless", nil},
		{"no-sqr", func(c *Config) { c.Consistency = Strong() }},
		{"min-calls", func(c *Config) { c.MinimizeCalls = true }},
		{"bushy", func(c *Config) { c.DisableTheorems = true }},
	}

	type record struct {
		rows  string
		trans int64
	}
	type sweep struct {
		// queries holds one record per (mode, query) in execution order.
		queries map[string][]record
		// spend is each mode's cumulative transactions.
		spend map[string]int64
		// stored is each mode's semantic-store row count per market table.
		stored map[string]map[string]int
	}

	run := func(conc int) sweep {
		w := workload.GenerateWHW(wcfg)
		m := market.New()
		if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
			t.Fatal(err)
		}
		tables := append(m.ExportCatalog(), w.ZipMap)
		clients := make(map[string]*Client)
		for _, md := range modes {
			key := fmt.Sprintf("acct-%s-%d", md.name, conc)
			m.RegisterAccount(key)
			ccfg := Config{
				Tables:           tables,
				Caller:           market.AccountCaller{Market: m, Key: key},
				FetchConcurrency: conc,
			}
			if md.mutate != nil {
				md.mutate(&ccfg)
			}
			c, err := Open(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
				t.Fatal(err)
			}
			clients[md.name] = c
		}
		s := sweep{
			queries: make(map[string][]record),
			spend:   make(map[string]int64),
			stored:  make(map[string]map[string]int),
		}
		rng := rand.New(rand.NewSource(23))
		var sqls []string
		for _, tpl := range w.Templates() {
			for i := 0; i < 2; i++ {
				sqls = append(sqls, tpl.Instantiate(rng))
			}
		}
		// Fan-out statements: their batches run across the worker pool.
		sqls = append(sqls, fanoutQueries(w, rng, 3)...)
		for _, sql := range sqls {
			for _, md := range modes {
				res, err := clients[md.name].Query(sql)
				if err != nil {
					t.Fatalf("conc=%d %s: %v\n%s", conc, md.name, err, sql)
				}
				s.queries[md.name] = append(s.queries[md.name],
					record{rows: canon(res.Rows), trans: res.Report.Transactions})
			}
		}
		for _, md := range modes {
			s.spend[md.name] = clients[md.name].TotalSpend().Transactions
			cover := make(map[string]int)
			for _, tb := range m.ExportCatalog() {
				cover[tb.Name] = clients[md.name].store.StoredRowCount(tb.Name)
			}
			s.stored[md.name] = cover
		}
		return s
	}

	serial := run(1)
	for _, conc := range []int{4, 8, 16} {
		got := run(conc)
		for _, md := range modes {
			want, have := serial.queries[md.name], got.queries[md.name]
			if len(want) != len(have) {
				t.Fatalf("conc=%d %s: %d queries vs serial %d", conc, md.name, len(have), len(want))
			}
			for i := range want {
				if have[i].rows != want[i].rows {
					t.Errorf("conc=%d %s query %d: result set differs from serial", conc, md.name, i)
				}
				if have[i].trans != want[i].trans {
					t.Errorf("conc=%d %s query %d: billed %d transactions, serial billed %d",
						conc, md.name, i, have[i].trans, want[i].trans)
				}
			}
			if got.spend[md.name] != serial.spend[md.name] {
				t.Errorf("conc=%d %s: total spend %d, serial %d",
					conc, md.name, got.spend[md.name], serial.spend[md.name])
			}
			for tb, n := range serial.stored[md.name] {
				if got.stored[md.name][tb] != n {
					t.Errorf("conc=%d %s: %s coverage %d rows, serial %d",
						conc, md.name, tb, got.stored[md.name][tb], n)
				}
			}
		}
	}
}

// TestParallelFetchStress hammers one client from many goroutines over a
// live HTTP market with injected per-request latency and transient faults.
// Every query must still return the brute-force-correct answer; the race
// detector guards the engine/store/stats/market locking.
func TestParallelFetchStress(t *testing.T) {
	wcfg := workload.WHWConfig{
		Seed: 41, Countries: 4, StationsPerCountry: 20, CitiesPerCountry: 5,
		Days: 20, StartDate: 20140601, Zips: 40, MaxRank: 100,
	}
	w := workload.GenerateWHW(wcfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("stress")

	var reqs atomic.Int64
	inner := m.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n := reqs.Add(1)
		time.Sleep(time.Millisecond) // injected network latency
		if n%9 == 0 {
			// Transient fault before the market sees the call: nothing is
			// billed, so the retry is free.
			http.Error(rw, "spurious overload", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	client, err := Open(Config{
		Tables:               append(m.ExportCatalog(), w.ZipMap),
		Caller:               connector.New(srv.URL, "stress"),
		TuplesPerTransaction: map[string]int{"WHW": 100},
		FetchConcurrency:     8,
		retry:                federation.Retry{Attempts: 5, Base: time.Millisecond, Max: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}

	// Q1-style point/range queries with brute-force expected counts.
	type job struct {
		sql  string
		want int
	}
	rng := rand.New(rand.NewSource(7))
	var jobs []job
	for i := 0; i < 24; i++ {
		country := w.Countries[rng.Intn(len(w.Countries))]
		lo := w.Dates[rng.Intn(len(w.Dates)/2)]
		hi := w.Dates[len(w.Dates)/2+rng.Intn(len(w.Dates)/2)]
		want := 0
		for _, r := range w.WeatherRows {
			if r[0].Str() == country && r[2].Int64() >= lo && r[2].Int64() <= hi {
				want++
			}
		}
		jobs = append(jobs, job{
			sql: fmt.Sprintf("SELECT * FROM Weather WHERE Country = '%s' AND Date >= %d AND Date <= %d",
				country, lo, hi),
			want: want,
		})
	}

	const workers = 6
	var wg sync.WaitGroup
	errCh := make(chan error, workers*len(jobs))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(jobs); i += workers {
				res, err := client.Query(jobs[i].sql)
				if err != nil {
					errCh <- fmt.Errorf("worker %d job %d: %w", g, i, err)
					return
				}
				if len(res.Rows) != jobs[i].want {
					errCh <- fmt.Errorf("worker %d job %d: %d rows, want %d", g, i, len(res.Rows), jobs[i].want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if reqs.Load() == 0 {
		t.Fatal("stress test issued no HTTP requests")
	}
}

// fanoutQueries returns n statements that each read every country over a
// random date range: an IN over every country decomposes the access region
// into one disjoint box per country — one independent market call each,
// the engine's fan-out unit.
func fanoutQueries(w *workload.WHW, rng *rand.Rand, n int) []string {
	in := "'" + strings.Join(w.Countries, "', '") + "'"
	sqls := make([]string, n)
	for i := range sqls {
		lo, hi := w.Dates[rng.Intn(len(w.Dates)/2)], w.Dates[len(w.Dates)/2+rng.Intn(len(w.Dates)/2)]
		sqls[i] = fmt.Sprintf("SELECT * FROM Weather WHERE Country IN (%s) AND Date >= %d AND Date <= %d", in, lo, hi)
	}
	return sqls
}

// fanoutEnv is a live HTTP market that answers every call latency late,
// plus a fan-out workload over it.
type fanoutEnv struct {
	w    *workload.WHW
	m    *market.Market
	srv  *httptest.Server
	sql  []string
	warm bool // replayAllocs has replayed the workload once unmeasured
}

// newFanoutEnv builds the 8-way fan-out: at the allocation guards' scale,
// or at the benchmarks' (5 ms a call, where the serial engine pays ~8
// round-trips a query and the concurrent one ~1).
func newFanoutEnv(tb testing.TB, bench bool) *fanoutEnv {
	tb.Helper()
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 8
	cfg.StationsPerCountry, cfg.CitiesPerCountry, cfg.Days, cfg.Zips = 5, 2, 10, 20
	latency, queries := 2*time.Millisecond, 3
	if bench {
		cfg = workload.DefaultWHWConfig()
		cfg.Countries, cfg.StationsPerCountry, cfg.Days = 8, 10, 20
		latency, queries = 5*time.Millisecond, 6
	}
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		tb.Fatal(err)
	}
	inner := m.Handler()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		time.Sleep(latency)
		inner.ServeHTTP(rw, r)
	}))
	market.ConfigureServer(srv.Config) // market timeout defaults, as in production
	srv.Start()
	tb.Cleanup(srv.Close)
	return &fanoutEnv{w: w, m: m, srv: srv, sql: fanoutQueries(w, rand.New(rand.NewSource(42)), queries)}
}

// client registers account key and opens a fresh client over caller. SQR
// is disabled so every query pays its full fan-out of calls: the workload
// measures the transport, not semantic reuse.
func (env *fanoutEnv) client(tb testing.TB, key string, caller market.Caller, conc int, opts ...Option) *Client {
	tb.Helper()
	env.m.RegisterAccount(key)
	c, err := Open(Config{
		Tables:           append(env.m.ExportCatalog(), env.w.ZipMap),
		Caller:           caller,
		Consistency:      Strong(),
		FetchConcurrency: conc,
	}, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.LoadLocal("ZipMap", env.w.ZipMapRows); err != nil {
		tb.Fatal(err)
	}
	return c
}

// replayAllocs returns what one full pass over the fan-out workload
// allocates on a fresh client built with opts. The client calls the market
// in process and one call at a time, so — unlike a wall-clock ratio, which a
// loaded host moves by tens of percent — the count repeats. The collector is
// off while it counts: a GC emptying a sync.Pool mid-run would otherwise
// move the count by a couple of allocations in six thousand. The first
// client on an environment also pays one-time costs as its calls first run
// concurrently (threads, goroutine stacks, per-P pools), about 20
// allocations over a measured run, so the first call on each environment
// replays the workload once unmeasured before it measures.
func (env *fanoutEnv) replayAllocs(t *testing.T, key string, opts ...Option) (float64, *Client) {
	t.Helper()
	if !env.warm {
		env.warm = true
		env.replayAllocs(t, "alloc-warmup")
	}
	client := env.client(t, key, market.AccountCaller{Market: env.m, Key: key}, 1, opts...)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(10, func() {
		for _, sql := range env.sql {
			if _, err := client.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
	}), client
}

// sameAllocs reports whether two replayAllocs counts agree to 0.1 %: one
// allocation per market call (24 calls a pass) is four times that.
func sameAllocs(a, b float64) bool { return math.Abs(a-b) <= a/1000 }

// BenchmarkFetchConcurrency measures one fan-out query end to end over the
// HTTP transport with 5ms injected per-call latency. The 8-way fan-out
// means conc=8 should run several times faster than conc=1:
//
//	go test . -run xxx -bench FetchConcurrency -benchtime 10x
func BenchmarkFetchConcurrency(b *testing.B) { benchmarkFetch(b, []int{1, 2, 4, 8}) }

// BenchmarkFetchConcurrencyTraced is BenchmarkFetchConcurrency with a
// CollectTracer attached — compare the two to quantify the cost of full
// tracing.
func BenchmarkFetchConcurrencyTraced(b *testing.B) {
	benchmarkFetch(b, []int{1, 8}, WithTracer(&CollectTracer{}))
}

func benchmarkFetch(b *testing.B, levels []int, opts ...Option) {
	env := newFanoutEnv(b, true)
	for _, conc := range levels {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			key := fmt.Sprintf("bench-%d-%d", conc, b.N)
			client := env.client(b, key, connector.New(env.srv.URL, key), conc, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Query(env.sql[i%len(env.sql)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
