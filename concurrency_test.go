package payless

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/connector"
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
		for _, tpl := range w.Templates() {
			for i := 0; i < 2; i++ {
				sql := tpl.Instantiate(rng)
				for _, md := range modes {
					res, err := clients[md.name].Query(sql)
					if err != nil {
						t.Fatalf("conc=%d %s / %s: %v\n%s", conc, md.name, tpl.Name, err, sql)
					}
					s.queries[md.name] = append(s.queries[md.name],
						record{rows: canon(res.Rows), trans: res.Report.Transactions})
				}
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
			// billed, so the connector's retry is free.
			http.Error(rw, "spurious overload", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	conn := connector.New(srv.URL, "stress",
		connector.WithRetries(4),
		connector.WithBackoff(time.Millisecond, 5*time.Millisecond))
	client, err := Open(Config{
		Tables:               append(m.ExportCatalog(), w.ZipMap),
		Caller:               conn,
		TuplesPerTransaction: map[string]int{"WHW": 100},
		FetchConcurrency:     8,
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
