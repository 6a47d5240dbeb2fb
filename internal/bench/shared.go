package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	payless "payless"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// SharedParams controls the cross-query sharing experiment: N concurrent
// client streams replay the same WHW query list through ONE PayLess client,
// and the figure reports the billed transactions at each N next to what N
// independent buyers would pay.
type SharedParams struct {
	Cfg workload.WHWConfig
	// Levels are the concurrent-stream counts to sweep.
	Levels []int
	// Queries is the number of disjoint queries each stream replays.
	Queries int
}

// DefaultSharedParams mirrors the concurrency sweep's scale: 8 countries,
// disjoint per-round boxes, N in {1, 2, 4, 8}.
func DefaultSharedParams() SharedParams {
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 8
	cfg.StationsPerCountry = 10
	cfg.Days = 20
	return SharedParams{
		Cfg:     cfg,
		Levels:  []int{1, 2, 4, 8},
		Queries: 6,
	}
}

// sharedEnv is one live market plus the disjoint query list every stream
// replays. The rounds are pairwise disjoint boxes (countries × date chunks)
// so each round's uncovered remainder is identical for every stream — the
// duplication is purely cross-stream, which is exactly what the scheduler
// is supposed to remove.
type sharedEnv struct {
	w   *workload.WHW
	m   *market.Market
	sql []string
}

func newSharedEnv(p SharedParams) (*sharedEnv, error) {
	w := workload.GenerateWHW(p.Cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		return nil, err
	}
	c := len(w.Countries)
	chunks := (p.Queries + c - 1) / c
	if chunks > len(w.Dates) {
		return nil, fmt.Errorf("shared: %d queries need %d date chunks but only %d dates exist",
			p.Queries, chunks, len(w.Dates))
	}
	sqls := make([]string, 0, p.Queries)
	for i := 0; i < p.Queries; i++ {
		country := w.Countries[i%c]
		j := i / c
		lo := w.Dates[j*len(w.Dates)/chunks]
		hi := w.Dates[(j+1)*len(w.Dates)/chunks-1]
		sqls = append(sqls, fmt.Sprintf(
			"SELECT * FROM Weather WHERE Country = '%s' AND Date >= %d AND Date <= %d", country, lo, hi))
	}
	return &sharedEnv{w: w, m: m, sql: sqls}, nil
}

// sharedGate blocks every wire call on the current gate until the run
// releases it. Holding the gate pins the overlap: no
// stream can record its purchase while another is still planning, so "N
// concurrent buyers of the same box" is a controlled fact of the experiment
// rather than a scheduling accident.
type sharedGate struct {
	inner market.Caller
	mu    sync.Mutex
	gate  chan struct{}
}

func (g *sharedGate) setGate(c chan struct{}) {
	g.mu.Lock()
	g.gate = c
	g.mu.Unlock()
}

func (g *sharedGate) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return market.Result{}, ctx.Err()
		}
	}
	return g.inner.Call(ctx, q)
}

// runShared replays the query list with n concurrent streams through one
// fresh client and returns the account's billed transactions.
func (env *sharedEnv) runShared(acct string, n int) (int64, error) {
	env.m.RegisterAccount(acct)
	gc := &sharedGate{inner: market.AccountCaller{Market: env.m, Key: acct}}
	client, err := payless.Open(payless.Config{
		Tables:                      append(env.m.ExportCatalog(), env.w.ZipMap),
		Caller:                      gc,
		DefaultTuplesPerTransaction: 100,
		FetchConcurrency:            4,
	})
	if err != nil {
		return 0, err
	}
	if err := client.LoadLocal("ZipMap", env.w.ZipMapRows); err != nil {
		return 0, err
	}

	for _, sql := range env.sql {
		if n == 1 {
			if _, err := client.Query(sql); err != nil {
				return 0, err
			}
			continue
		}
		gate := make(chan struct{})
		gc.setGate(gate)
		hitsBefore := client.Metrics().SchedSingleflightHits

		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = client.Query(sql)
			}(i)
		}
		// Hold the gate until the overlap is observable: every other stream
		// must have joined the one flight.
		waitErr := waitShared(func() bool {
			return client.Metrics().SchedSingleflightHits >= hitsBefore+int64(n-1)
		})
		close(gate)
		wg.Wait()
		if waitErr != nil {
			for _, err := range errs {
				if err != nil {
					return 0, fmt.Errorf("%w (stream error: %v)", waitErr, err)
				}
			}
			return 0, waitErr
		}
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
	}
	meter, _ := env.m.MeterOf(acct)
	return meter.Transactions, nil
}

func waitShared(cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("shared: timed out waiting for streams to overlap")
}

// FigShared measures what N concurrent identical query streams cost through
// one client. N independent buyers would each buy every box — N times the
// serial bill; through one client the call scheduler's single-flight
// collapses the N concurrent buyers of a box onto one wire call and one
// bill. The figure errors unless every N bills exactly the serial (N=1)
// price.
func FigShared(p SharedParams) (*Figure, error) {
	env, err := newSharedEnv(p)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "FigShared",
		Title: fmt.Sprintf("Billed transactions vs. concurrent streams (%d disjoint queries replayed per stream)",
			len(env.sql)),
		XLabel: "clients",
	}
	serial, err := env.runShared("serial", 1)
	if err != nil {
		return nil, fmt.Errorf("serial: %w", err)
	}
	independent := Series{System: "N independent buyers (N x serial)"}
	shared := Series{System: "PayLess, one shared client"}
	for _, n := range p.Levels {
		bill, err := env.runShared(fmt.Sprintf("shared-%d", n), n)
		if err != nil {
			return nil, fmt.Errorf("n=%d: %w", n, err)
		}
		if bill != serial {
			return nil, fmt.Errorf("%d concurrent streams billed %d transactions, the serial run %d", n, bill, serial)
		}
		independent.X = append(independent.X, n)
		independent.Y = append(independent.Y, int64(n)*serial)
		shared.X = append(shared.X, n)
		shared.Y = append(shared.Y, bill)
	}
	fig.Series = append(fig.Series, independent, shared)
	return fig, nil
}
