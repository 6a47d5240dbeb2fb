// Package bench regenerates every figure of the paper's evaluation (§5).
// Each experiment builds a fresh market with deterministic synthetic data,
// replays a shuffled workload of query-template instances through one of the
// four compared systems — PayLess, PayLess w/o SQR, Minimizing Calls [27],
// Download All — and reports cumulative data-market transactions (Figs.
// 10–13), optimizer search effort (Fig. 14), or bounding-box generation
// (Fig. 15). DESIGN.md maps experiment IDs to these runners.
package bench

import (
	"fmt"

	payless "payless"

	"payless/internal/baseline"
	"payless/internal/catalog"
	"payless/internal/core"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// SystemKind names one of the compared systems.
type SystemKind int

// The four systems of Fig. 10.
const (
	PayLess SystemKind = iota
	PayLessNoSQR
	MinimizingCalls
	DownloadAll
)

// String returns the paper's legend label.
func (k SystemKind) String() string {
	switch k {
	case PayLess:
		return "PayLess"
	case PayLessNoSQR:
		return "PayLess w/o SQR"
	case MinimizingCalls:
		return "Minimizing Calls"
	case DownloadAll:
		return "Download All"
	default:
		return fmt.Sprintf("system(%d)", int(k))
	}
}

// Env is one prepared experiment environment: a market holding the dataset,
// the catalog a buyer registers, local table contents, and the query list.
type Env struct {
	Market *market.Market
	// Tables is the full catalog (market + local tables).
	Tables []*catalog.Table
	// LocalData maps local table names to their rows.
	LocalData map[string][]value.Row
	// Queries is the shuffled workload.
	Queries []string
	// T is the dataset page size (tuples per transaction).
	T int
	// MarketRows is the total number of rows behind the paywall.
	MarketRows int

	accounts int
}

// NewRealEnv builds the real-data (WHW + EHR + ZipMap) environment with q
// instances per Table 1 template.
func NewRealEnv(cfg workload.WHWConfig, q, t int, seed int64) (*Env, error) {
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), t, 1); err != nil {
		return nil, err
	}
	return &Env{
		Market:     m,
		Tables:     append(m.ExportCatalog(), w.ZipMap),
		LocalData:  map[string][]value.Row{"ZipMap": w.ZipMapRows},
		Queries:    workload.Mix(w.Templates(), q, seed),
		T:          t,
		MarketRows: len(w.StationRows) + len(w.WeatherRows) + len(w.PollutionRows),
	}, nil
}

// NewTPCHEnv builds the TPC-H environment (set cfg.Zipf = 1 for the skewed
// variant) with q instances per template.
func NewTPCHEnv(cfg workload.TPCHConfig, q, t int, seed int64) (*Env, error) {
	d := workload.GenerateTPCH(cfg)
	m := market.New()
	if err := d.Install(m, storage.NewDB(), t, 1); err != nil {
		return nil, err
	}
	return &Env{
		Market:     m,
		Tables:     append(m.ExportCatalog(), d.Nation, d.Region),
		LocalData:  map[string][]value.Row{"Nation": d.NationRows, "Region": d.RegionRows},
		Queries:    workload.Mix(d.Templates(), q, seed),
		T:          t,
		MarketRows: d.MarketRowCount(),
	}, nil
}

// Runner replays queries and reports per-query market transactions.
type Runner interface {
	Run(sql string) (transactions int64, counters core.Counters, err error)
}

type clientRunner struct{ c *payless.Client }

func (r clientRunner) Run(sql string) (int64, core.Counters, error) {
	res, err := r.c.Query(sql)
	if err != nil {
		return 0, core.Counters{}, err
	}
	return res.Report.Transactions, res.Counters, nil
}

type downloadRunner struct{ d *baseline.DownloadAll }

func (r downloadRunner) Run(sql string) (int64, core.Counters, error) {
	rep, err := r.d.Query(sql)
	return rep.Transactions, core.Counters{}, err
}

// NewSystem builds a fresh runner of the given kind over the environment,
// with its own market account and empty semantic store. mutate, if non-nil,
// adjusts the PayLess configuration (used by the ablation experiments).
func (e *Env) NewSystem(kind SystemKind, mutate func(*payless.Config)) (Runner, error) {
	e.accounts++
	key := fmt.Sprintf("acct-%d-%d", kind, e.accounts)
	e.Market.RegisterAccount(key)
	caller := market.AccountCaller{Market: e.Market, Key: key}
	if kind == DownloadAll {
		d, err := baseline.NewDownloadAll(e.Tables, caller)
		if err != nil {
			return nil, err
		}
		for name, rows := range e.LocalData {
			if err := d.LoadLocal(name, rows); err != nil {
				return nil, err
			}
		}
		return downloadRunner{d}, nil
	}
	cfg := payless.Config{
		Tables:                      e.Tables,
		Caller:                      caller,
		DefaultTuplesPerTransaction: e.T,
	}
	switch kind {
	case PayLessNoSQR:
		cfg.Consistency = payless.Strong()
	case MinimizingCalls:
		cfg.MinimizeCalls = true
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := payless.Open(cfg)
	if err != nil {
		return nil, err
	}
	for name, rows := range e.LocalData {
		if err := c.LoadLocal(name, rows); err != nil {
			return nil, err
		}
	}
	return clientRunner{c}, nil
}

// Series is one cumulative-transactions curve (a line of Figs. 10–13).
type Series struct {
	System string
	X      []int
	Y      []int64
}

// Cumulative replays the environment's workload through a fresh system of
// the given kind and samples the cumulative transaction count every
// sampleEvery queries (and at the end).
func (e *Env) Cumulative(kind SystemKind, sampleEvery int, mutate func(*payless.Config)) (Series, error) {
	r, err := e.NewSystem(kind, mutate)
	if err != nil {
		return Series{}, err
	}
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	s := Series{System: kind.String()}
	var total int64
	for i, q := range e.Queries {
		trans, _, err := r.Run(q)
		if err != nil {
			return Series{}, fmt.Errorf("%s query %d (%s): %w", kind, i, q, err)
		}
		total += trans
		if (i+1)%sampleEvery == 0 || i == len(e.Queries)-1 {
			s.X = append(s.X, i+1)
			s.Y = append(s.Y, total)
		}
	}
	return s, nil
}

// Effort is the Fig. 14 / Fig. 15 measurement: average optimizer search
// effort per query.
type Effort struct {
	System          string
	AvgPlans        float64
	AvgBoxes        float64
	AvgKeptBoxes    float64
	TotalQueries    int
	TotalBoxesEnum  int
	TotalBoxesKept  int
	TotalPlansCount int
}

// SearchEffort replays the workload and averages the optimizer counters.
// mutate adjusts the client config (disable SQR, disable theorems, disable
// box pruning).
func (e *Env) SearchEffort(mutate func(*payless.Config)) (Effort, error) {
	r, err := e.NewSystem(PayLess, mutate)
	if err != nil {
		return Effort{}, err
	}
	var eff Effort
	for i, q := range e.Queries {
		_, counters, err := r.Run(q)
		if err != nil {
			return Effort{}, fmt.Errorf("query %d (%s): %w", i, q, err)
		}
		eff.TotalPlansCount += counters.PlansEvaluated
		eff.TotalBoxesEnum += counters.BoxesEnumerated
		eff.TotalBoxesKept += counters.BoxesKept
		eff.TotalQueries++
	}
	n := float64(eff.TotalQueries)
	eff.AvgPlans = float64(eff.TotalPlansCount) / n
	eff.AvgBoxes = float64(eff.TotalBoxesEnum) / n
	eff.AvgKeptBoxes = float64(eff.TotalBoxesKept) / n
	return eff, nil
}

// DownloadAllCost is the horizontal "Download All" reference line: the
// price of downloading every market table wholly.
func (e *Env) DownloadAllCost() int64 {
	return baseline.UpfrontCost(e.Tables, e.T)
}
