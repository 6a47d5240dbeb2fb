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

// SystemKind names one of the compared systems by its legend label.
type SystemKind string

// The four systems of Fig. 10.
const (
	PayLess         SystemKind = "PayLess"
	PayLessNoSQR    SystemKind = "PayLess w/o SQR"
	MinimizingCalls SystemKind = "Minimizing Calls"
	DownloadAll     SystemKind = "Download All"
)

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

	accounts int
}

// envFor builds the environment of one dataset — "real" (WHW + EHR +
// ZipMap, QReal instances per Table 1 template), "tpch" or "tpch-skew"
// (QTPCH instances per template) — at the parameters' page size and seed.
func envFor(p Params, dataset string) (*Env, error) {
	m := market.New()
	env := &Env{Market: m, T: p.T}
	switch dataset {
	case "real":
		w := workload.GenerateWHW(p.RealCfg)
		if err := w.Install(m, storage.NewDB(), p.T, 1); err != nil {
			return nil, err
		}
		env.Tables = append(m.ExportCatalog(), w.ZipMap)
		env.LocalData = map[string][]value.Row{"ZipMap": w.ZipMapRows}
		env.Queries = workload.Mix(w.Templates(), p.QReal, p.Seed)
	case "tpch", "tpch-skew":
		cfg := p.TPCHCfg
		if dataset == "tpch-skew" {
			cfg.Zipf = 1
		}
		d := workload.GenerateTPCH(cfg)
		if err := d.Install(m, storage.NewDB(), p.T, 1); err != nil {
			return nil, err
		}
		env.Tables = append(m.ExportCatalog(), d.Nation, d.Region)
		env.LocalData = map[string][]value.Row{"Nation": d.NationRows, "Region": d.RegionRows}
		env.Queries = workload.Mix(d.Templates(), p.QTPCH, p.Seed)
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	return env, nil
}

// Runner replays one query and reports its market transactions.
type Runner func(sql string) (transactions int64, counters core.Counters, err error)

// NewSystem builds a fresh runner of the given kind over the environment,
// with its own market account and empty semantic store. mutate, if non-nil,
// adjusts the PayLess configuration (used by the ablation experiments).
func (e *Env) NewSystem(kind SystemKind, mutate func(*payless.Config)) (Runner, error) {
	e.accounts++
	key := fmt.Sprintf("acct-%d", e.accounts)
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
		return func(sql string) (int64, core.Counters, error) {
			rep, err := d.Query(sql)
			return rep.Transactions, core.Counters{}, err
		}, nil
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
	return func(sql string) (int64, core.Counters, error) {
		res, err := c.Query(sql)
		if err != nil {
			return 0, core.Counters{}, err
		}
		return res.Report.Transactions, res.Counters, nil
	}, nil
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
	s := Series{System: string(kind)}
	var total int64
	for i, q := range e.Queries {
		trans, _, err := r(q)
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
	System       string
	AvgPlans     float64
	AvgBoxes     float64
	AvgKeptBoxes float64
}

// SearchEffort replays the workload and averages the optimizer counters.
// mutate adjusts the client config (disable SQR, disable theorems, disable
// box pruning).
func (e *Env) SearchEffort(mutate func(*payless.Config)) (Effort, error) {
	r, err := e.NewSystem(PayLess, mutate)
	if err != nil {
		return Effort{}, err
	}
	var plans, boxes, kept int
	for i, q := range e.Queries {
		_, counters, err := r(q)
		if err != nil {
			return Effort{}, fmt.Errorf("query %d (%s): %w", i, q, err)
		}
		plans += counters.PlansEvaluated
		boxes += counters.BoxesEnumerated
		kept += counters.BoxesKept
	}
	n := float64(len(e.Queries))
	return Effort{
		AvgPlans:     float64(plans) / n,
		AvgBoxes:     float64(boxes) / n,
		AvgKeptBoxes: float64(kept) / n,
	}, nil
}

// DownloadAllCost is the horizontal "Download All" reference line: the
// price of downloading every market table wholly.
func (e *Env) DownloadAllCost() int64 {
	return baseline.UpfrontCost(e.Tables, e.T)
}
