package bench

import (
	"fmt"
	"strings"
	"time"

	payless "payless"

	"payless/internal/chaos"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// FederationParams controls the multi-market federation experiment: three
// in-process mirrors selling the same datasets at skewed prices, a fixed
// fan-out workload, and three buyers — a federated client (source selection
// on), a client pinned to the most expensive mirror (the no-federation
// counterfactual), and a federated client whose cheapest mirror is hard
// down (the failover worst case).
type FederationParams struct {
	Cfg workload.WHWConfig
	// SkewsPct are the price-skew percentages to sweep: at skew s the three
	// mirrors sell at 1×, (1+s/100)×, and (1+2s/100)× the base price.
	SkewsPct []int
	// Queries is the number of fan-out queries replayed per run.
	Queries int
	Seed    int64
}

// DefaultFederationParams keeps the sweep laptop-fast and the failover
// spend bound provable: the second-cheapest mirror never exceeds 1.25× the
// base price, so degraded spend stays within the 1.3× CI gate.
func DefaultFederationParams() FederationParams {
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 4
	cfg.StationsPerCountry = 10
	cfg.Days = 20
	return FederationParams{
		Cfg:      cfg,
		SkewsPct: []int{0, 5, 10, 25},
		Queries:  5,
		Seed:     17,
	}
}

// federationQueries builds the fixed workload, the same IN-over-countries
// shape as the fault sweep.
func federationQueries(w *workload.WHW, queries int, seed int64) []string {
	quoted := make([]string, len(w.Countries))
	for i, c := range w.Countries {
		quoted[i] = "'" + c + "'"
	}
	in := strings.Join(quoted, ", ")
	sqls := make([]string, 0, queries)
	for i := 0; i < queries; i++ {
		lo := w.Dates[(int(seed)+i)%(len(w.Dates)/2)]
		hi := w.Dates[len(w.Dates)/2+(int(seed)+i)%(len(w.Dates)/2)]
		sqls = append(sqls, fmt.Sprintf(
			"SELECT * FROM Weather WHERE Country IN (%s) AND Date >= %d AND Date <= %d", in, lo, hi))
	}
	return sqls
}

// federationMirrors installs the workload into three fresh markets priced
// 1×, (1+skew)×, and (1+2·skew)× base, each with one registered account.
func federationMirrors(w *workload.WHW, skewPct int) ([]*market.Market, []float64, error) {
	factors := []float64{1, 1 + float64(skewPct)/100, 1 + 2*float64(skewPct)/100}
	mirrors := make([]*market.Market, len(factors))
	for i, f := range factors {
		m := market.New()
		if err := w.Install(m, storage.NewDB(), 100, f); err != nil {
			return nil, nil, err
		}
		m.RegisterAccount("fed-bench")
		mirrors[i] = m
	}
	return mirrors, factors, nil
}

// federationSpend replays the workload through a client and returns the
// combined seller-side spend across every mirror.
func federationSpend(mirrors []*market.Market, client *payless.Client, sqls []string) (float64, error) {
	for _, sql := range sqls {
		if _, err := client.Query(sql); err != nil {
			return 0, err
		}
	}
	var spend float64
	for _, m := range mirrors {
		meter, _ := m.MeterOf("fed-bench")
		spend += meter.Price
	}
	return spend, nil
}

// federationRun measures one skew point's three spends: federated (buys at
// the cheapest mirror), pinned to the most expensive mirror, and federated
// with the cheapest mirror erroring every call (spend lands at the
// second-cheapest after failover).
func federationRun(w *workload.WHW, sqls []string, skewPct int, seed int64) (fed, pinned, degraded float64, err error) {
	open := func(mirrors []*market.Market, eps []payless.MarketEndpoint, caller market.Caller) (*payless.Client, error) {
		cfg := payless.Config{
			Tables:              mirrors[0].ExportCatalog(),
			FederationEndpoints: eps,
			Caller:              caller,
			Calls:               payless.CallPolicy{BreakAfter: 2, Cooldown: time.Minute},
			Consistency:         payless.Strong(), // every query pays its full fan-out
		}
		return payless.Open(cfg)
	}
	endpoints := func(mirrors []*market.Market, factors []float64, wrap0 func(market.Caller) market.Caller) []payless.MarketEndpoint {
		eps := make([]payless.MarketEndpoint, len(mirrors))
		for i, m := range mirrors {
			var c market.Caller = market.AccountCaller{Market: m, Key: "fed-bench"}
			if i == 0 && wrap0 != nil {
				c = wrap0(c)
			}
			eps[i] = payless.MarketEndpoint{
				Name:        fmt.Sprintf("mirror-%d", i),
				Caller:      c,
				PriceFactor: factors[i],
			}
		}
		return eps
	}

	// Federated, all mirrors healthy: spend at the cheapest source.
	mirrors, factors, err := federationMirrors(w, skewPct)
	if err != nil {
		return 0, 0, 0, err
	}
	client, err := open(mirrors, endpoints(mirrors, factors, nil), nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if fed, err = federationSpend(mirrors, client, sqls); err != nil {
		return 0, 0, 0, err
	}

	// Pinned to the most expensive mirror: what forgoing source selection costs.
	mirrors, _, err = federationMirrors(w, skewPct)
	if err != nil {
		return 0, 0, 0, err
	}
	expensive := mirrors[len(mirrors)-1]
	client, err = open(mirrors, nil, market.AccountCaller{Market: expensive, Key: "fed-bench"})
	if err != nil {
		return 0, 0, 0, err
	}
	if pinned, err = federationSpend(mirrors, client, sqls); err != nil {
		return 0, 0, 0, err
	}

	// Federated with the cheapest mirror hard down (pre-billing errors):
	// failover lands every purchase at the second-cheapest mirror.
	mirrors, factors, err = federationMirrors(w, skewPct)
	if err != nil {
		return 0, 0, 0, err
	}
	s := chaos.NewSchedule(seed)
	s.Target(func(string) bool { return true }, chaos.ServerError, -1)
	client, err = open(mirrors, endpoints(mirrors, factors, func(inner market.Caller) market.Caller {
		return chaos.Caller{Inner: inner, Schedule: s}
	}), nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if degraded, err = federationSpend(mirrors, client, sqls); err != nil {
		return 0, 0, 0, err
	}
	return fed, pinned, degraded, nil
}

// FigFederation sweeps spend against cross-mirror price skew. The federated
// line stays flat at the cheapest mirror's bill regardless of skew; the
// pinned line climbs at twice the skew rate (it always pays the most
// expensive price); the degraded line — cheapest mirror down, every call
// failed over — climbs at the skew rate and must stay within 1.3× the
// federated spend across the sweep, the availability premium the CI gate
// enforces.
func FigFederation(p FederationParams) (*Figure, error) {
	w := workload.GenerateWHW(p.Cfg)
	sqls := federationQueries(w, p.Queries, p.Seed)
	fig := &Figure{
		ID: "FigFederation",
		Title: fmt.Sprintf("Spend vs. price skew across 3 market mirrors (%d queries, %d-way fan-out)",
			p.Queries, len(w.Countries)),
		XLabel: "skew%",
	}
	fedS := Series{System: "spend (federated)"}
	pinS := Series{System: "spend (pinned to expensive mirror)"}
	degS := Series{System: "spend (cheapest mirror down, failover)"}
	for _, skew := range p.SkewsPct {
		fed, pinned, degraded, err := federationRun(w, sqls, skew, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("skew=%d%%: %w", skew, err)
		}
		if degraded > 1.3*fed {
			return nil, fmt.Errorf("skew=%d%%: degraded spend %.0f exceeds 1.3x federated spend %.0f",
				skew, degraded, fed)
		}
		fedS.X = append(fedS.X, skew)
		fedS.Y = append(fedS.Y, int64(fed+0.5))
		pinS.X = append(pinS.X, skew)
		pinS.Y = append(pinS.Y, int64(pinned+0.5))
		degS.X = append(degS.X, skew)
		degS.Y = append(degS.Y, int64(degraded+0.5))
	}
	fig.Series = append(fig.Series, fedS, pinS, degS)
	return fig, nil
}
