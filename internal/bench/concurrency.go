package bench

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	payless "payless"

	"payless/internal/connector"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// ConcurrencyParams controls the latency-vs-concurrency experiment: a fixed
// query workload replayed over the HTTP transport with CallLatency injected
// into every market round-trip, once per FetchConcurrency level.
type ConcurrencyParams struct {
	Cfg workload.WHWConfig
	// Levels are the FetchConcurrency settings to sweep.
	Levels []int
	// CallLatency is the injected per-call network latency.
	CallLatency time.Duration
	// Queries is the number of fan-out queries replayed per level.
	Queries int
	Seed    int64
	// Trace attaches a CollectTracer to every client, checks each query's
	// trace against its bill (the per-call transaction sum must equal the
	// report exactly, at every concurrency level), and adds traced-call and
	// retry series to the figure.
	Trace bool
}

// DefaultConcurrencyParams keeps the sweep laptop-fast: 8 countries give an
// 8-way call fan-out per query, so the serial engine pays ~8 round-trips
// where the concurrent one pays ~1.
func DefaultConcurrencyParams() ConcurrencyParams {
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 8
	cfg.StationsPerCountry = 10
	cfg.Days = 20
	return ConcurrencyParams{
		Cfg:         cfg,
		Levels:      []int{1, 2, 4, 8},
		CallLatency: 5 * time.Millisecond,
		Queries:     6,
		Seed:        42,
	}
}

// concurrencyEnv is one live HTTP market for the sweep.
type concurrencyEnv struct {
	w   *workload.WHW
	m   *market.Market
	srv *httptest.Server
	sql []string
}

func newConcurrencyEnv(p ConcurrencyParams) (*concurrencyEnv, error) {
	w := workload.GenerateWHW(p.Cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		return nil, err
	}
	inner := m.Handler()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		time.Sleep(p.CallLatency)
		inner.ServeHTTP(rw, r)
	}))
	market.ConfigureServer(srv.Config) // market timeout defaults, as in production
	srv.Start()
	// An IN over every country decomposes the access region into one
	// disjoint box per country — one independent market call each, the
	// engine's fan-out unit.
	quoted := make([]string, len(w.Countries))
	for i, c := range w.Countries {
		quoted[i] = "'" + c + "'"
	}
	in := strings.Join(quoted, ", ")
	rng := rand.New(rand.NewSource(p.Seed))
	sqls := make([]string, 0, p.Queries)
	for i := 0; i < p.Queries; i++ {
		lo := w.Dates[rng.Intn(len(w.Dates)/2)]
		hi := w.Dates[len(w.Dates)/2+rng.Intn(len(w.Dates)/2)]
		sqls = append(sqls, fmt.Sprintf(
			"SELECT * FROM Weather WHERE Country IN (%s) AND Date >= %d AND Date <= %d", in, lo, hi))
	}
	return &concurrencyEnv{w: w, m: m, srv: srv, sql: sqls}, nil
}

func (env *concurrencyEnv) close() { env.srv.Close() }

// client builds a fresh PayLess client against the live market. SQR is
// disabled so every query pays its full fan-out of calls — the experiment
// measures transport latency, not semantic reuse.
func (env *concurrencyEnv) client(key string, conc int, opts ...payless.Option) (*payless.Client, error) {
	env.m.RegisterAccount(key)
	c, err := payless.Open(payless.Config{
		Tables:           append(env.m.ExportCatalog(), env.w.ZipMap),
		Caller:           connector.New(env.srv.URL, key),
		Consistency:      payless.Strong(),
		FetchConcurrency: conc,
	}, opts...)
	if err != nil {
		return nil, err
	}
	if err := c.LoadLocal("ZipMap", env.w.ZipMapRows); err != nil {
		return nil, err
	}
	return c, nil
}

// FigConcurrency measures the wall-clock latency of a fixed fan-out
// workload at each FetchConcurrency level, over HTTP with injected per-call
// latency. The bill must come out identical at every level — the engine
// plans batches up front and merges in plan order — so the figure isolates
// the latency effect of parallel fetching.
func FigConcurrency(p ConcurrencyParams) (*Figure, error) {
	env, err := newConcurrencyEnv(p)
	if err != nil {
		return nil, err
	}
	defer env.close()
	fig := &Figure{
		ID: "FigConc",
		Title: fmt.Sprintf("Fetch latency vs. concurrency (%d-way fan-out, %v/call injected)",
			len(env.w.Countries), p.CallLatency),
		XLabel: "conc",
	}
	s := Series{System: "PayLess w/o SQR latency(ms)"}
	calls := Series{System: "traced calls"}
	retries := Series{System: "traced retries"}
	var bills []int64
	for _, conc := range p.Levels {
		var opts []payless.Option
		if p.Trace {
			opts = append(opts, payless.WithTracer(&payless.CollectTracer{}))
		}
		client, err := env.client(fmt.Sprintf("conc-%d", conc), conc, opts...)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var bill, levelCalls, levelRetries int64
		for _, sql := range env.sql {
			res, err := client.Query(sql)
			if err != nil {
				return nil, err
			}
			bill += res.Report.Transactions
			if p.Trace {
				tr := res.Trace
				if tr == nil {
					return nil, fmt.Errorf("conc=%d: tracing enabled but Result.Trace is nil", conc)
				}
				// The trace is an exact accounting of the bill: the per-call
				// transaction sum must match the report at every level.
				if got := tr.CallTransactions(); got != res.Report.Transactions {
					return nil, fmt.Errorf("conc=%d: trace transaction sum %d != report %d",
						conc, got, res.Report.Transactions)
				}
				levelCalls += int64(len(tr.Calls))
				levelRetries += tr.Retries()
			}
		}
		s.X = append(s.X, conc)
		s.Y = append(s.Y, time.Since(start).Milliseconds())
		calls.X = append(calls.X, conc)
		calls.Y = append(calls.Y, levelCalls)
		retries.X = append(retries.X, conc)
		retries.Y = append(retries.Y, levelRetries)
		bills = append(bills, bill)
	}
	for _, b := range bills {
		if b != bills[0] {
			return nil, fmt.Errorf("bill diverged across concurrency levels: %v", bills)
		}
	}
	fig.Series = append(fig.Series, s)
	if p.Trace {
		fig.Series = append(fig.Series, calls, retries)
	}
	return fig, nil
}
