package bench

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"time"

	payless "payless"

	"payless/internal/chaos"
	"payless/internal/connector"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// FaultParams controls the cost-overhead-under-faults experiment: a fixed
// fan-out workload replayed over HTTP through a chaos.Handler at each fault
// rate, once with per-call idempotency IDs (the default connector) and once
// with them disabled — the billing ablation for the replay ledger.
type FaultParams struct {
	Cfg workload.WHWConfig
	// Rates are the per-request fault probabilities to sweep. Each rate is
	// split across post-billing faults (connection drop, truncated body) and
	// pre-billing 500s, so retries exercise both the ledger and plain
	// re-attempts.
	Rates []float64
	// Queries is the number of fan-out queries replayed per run.
	Queries int
	Seed    int64
	// Retries is the connector retry budget; it must be deep enough that
	// every query survives the highest fault rate.
	Retries int
}

// DefaultFaultParams keeps the sweep laptop-fast: 6 countries give a 6-way
// call fan-out per query, and the top rate injects a fault into roughly one
// in five market requests.
func DefaultFaultParams() FaultParams {
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 6
	cfg.StationsPerCountry = 10
	cfg.Days = 20
	return FaultParams{
		Cfg:     cfg,
		Rates:   []float64{0, 0.05, 0.10, 0.20},
		Queries: 6,
		Seed:    42,
		Retries: 20,
	}
}

// faultQueries builds the fixed workload: IN over every country times a
// random date range, the same shape as the concurrency sweep.
func faultQueries(w *workload.WHW, p FaultParams) []string {
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
	return sqls
}

// faultRun replays the workload against a fresh market behind a seeded
// chaos.Handler and returns the seller-side meter — the billing ground
// truth — plus how many faults the schedule actually injected.
func faultRun(w *workload.WHW, sqls []string, p FaultParams, rate float64, callIDs bool) (market.Meter, int64, error) {
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		return market.Meter{}, 0, err
	}
	const key = "fault-bench"
	m.RegisterAccount(key)
	s := chaos.NewSchedule(p.Seed).
		Rate(chaos.Drop, rate/2).
		Rate(chaos.Truncate, rate/4).
		Rate(chaos.ServerError, rate/4)
	srv := httptest.NewUnstartedServer(chaos.Handler(m.Handler(), s))
	market.ConfigureServer(srv.Config) // market timeout defaults, as in production
	srv.Start()
	defer srv.Close()
	opts := []connector.Option{
		connector.WithRetries(p.Retries),
		connector.WithBackoff(time.Millisecond, 10*time.Millisecond), // keep retry storms fast
	}
	if !callIDs {
		opts = append(opts, connector.WithoutCallIDs())
	}
	client, err := payless.Open(payless.Config{
		Tables:      m.ExportCatalog(),
		Caller:      connector.New(srv.URL, key, opts...),
		Consistency: payless.Strong(), // every query pays its full fan-out; no semantic reuse
	})
	if err != nil {
		return market.Meter{}, 0, err
	}
	for _, sql := range sqls {
		if _, err := client.Query(sql); err != nil {
			return market.Meter{}, 0, fmt.Errorf("rate=%.2f callIDs=%v: %w", rate, callIDs, err)
		}
	}
	meter, _ := m.MeterOf(key)
	return meter, s.TotalInjected(), nil
}

// FigFaults measures what the seller actually bills for a fixed workload as
// the injected fault rate rises, with and without the idempotent-call
// protocol. With call IDs the market's replay ledger serves every retried
// post-billing fault from cache, so the billed-transaction line must stay
// exactly flat at the clean-run bill; without them each retry of a dropped
// or truncated response is billed again, and the line climbs with the rate.
func FigFaults(p FaultParams) (*Figure, error) {
	w := workload.GenerateWHW(p.Cfg)
	sqls := faultQueries(w, p)
	fig := &Figure{
		ID: "FigFaults",
		Title: fmt.Sprintf("Billed transactions vs. fault rate (%d queries, %d-way fan-out, drop/truncate/5xx mix)",
			p.Queries, len(w.Countries)),
		XLabel: "fault%",
	}
	ledger := Series{System: "billed txns (idempotent calls)"}
	bare := Series{System: "billed txns (no call IDs)"}
	faults := Series{System: "injected faults"}
	for _, rate := range p.Rates {
		x := int(rate*100 + 0.5)
		mL, injected, err := faultRun(w, sqls, p, rate, true)
		if err != nil {
			return nil, err
		}
		mB, _, err := faultRun(w, sqls, p, rate, false)
		if err != nil {
			return nil, err
		}
		ledger.X = append(ledger.X, x)
		ledger.Y = append(ledger.Y, mL.Transactions)
		bare.X = append(bare.X, x)
		bare.Y = append(bare.Y, mB.Transactions)
		faults.X = append(faults.X, x)
		faults.Y = append(faults.Y, injected)
	}
	// The exactly-once invariant, asserted over the whole sweep: the
	// idempotent bill never moves off the clean-run bill, no matter the rate.
	for i, y := range ledger.Y {
		if y != ledger.Y[0] {
			return nil, fmt.Errorf("idempotent bill diverged at %d%% fault rate: %d != clean-run %d",
				ledger.X[i], y, ledger.Y[0])
		}
	}
	fig.Series = append(fig.Series, ledger, bare, faults)
	return fig, nil
}
