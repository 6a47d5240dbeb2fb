// Package baseline implements the comparison systems of the paper's
// evaluation (§5):
//
//   - Download All: download every referenced market table in full on first
//     touch, then answer all queries locally. Optimal when queries
//     eventually scan the whole dataset, wasteful when users "walk away
//     after issuing just a few queries".
//   - Minimizing Calls ([27]-style) is not here: it is PayLess's own
//     optimizer run with Config.MinimizeCalls (cost = number of RESTful
//     calls, no semantic query rewriting), see the root payless package.
package baseline

import (
	"context"
	"fmt"

	"payless/internal/catalog"
	"payless/internal/core"
	"payless/internal/engine"
	"payless/internal/market"
	"payless/internal/rewrite"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/stats"
	"payless/internal/storage"
	"payless/internal/value"
)

// DownloadAll answers SQL by downloading whole tables upfront.
type DownloadAll struct {
	cat        *catalog.Catalog
	localCat   *catalog.Catalog
	db         *storage.DB
	caller     market.Caller
	downloaded map[string]bool
	total      engine.Report
}

// NewDownloadAll builds the baseline over the same catalog and caller a
// PayLess client would use.
func NewDownloadAll(tables []*catalog.Table, caller market.Caller) (*DownloadAll, error) {
	if caller == nil {
		return nil, fmt.Errorf("baseline: caller is required")
	}
	cat := catalog.New()
	localCat := catalog.New()
	for _, t := range tables {
		if err := cat.Register(t); err != nil {
			return nil, err
		}
		// The shadow catalog sees every table as local once downloaded.
		lc := *t
		lc.Local = true
		if err := localCat.Register(&lc); err != nil {
			return nil, err
		}
	}
	return &DownloadAll{
		cat:        cat,
		localCat:   localCat,
		db:         storage.NewDB(),
		caller:     caller,
		downloaded: make(map[string]bool),
	}, nil
}

// LoadLocal loads rows into a genuinely local table.
func (d *DownloadAll) LoadLocal(name string, rows []value.Row) error {
	t, ok := d.cat.Lookup(name)
	if !ok || !t.Local {
		return fmt.Errorf("baseline: %s is not a registered local table", name)
	}
	tbl, err := d.db.Ensure(t.Name, t.Schema)
	if err != nil {
		return err
	}
	_, err = tbl.Insert(rows)
	return err
}

// ensureDownloaded fetches a market table in full on first touch.
func (d *DownloadAll) ensureDownloaded(t *catalog.Table) error {
	if t.Local || d.downloaded[t.Name] {
		return nil
	}
	res, err := d.caller.Call(context.Background(), catalog.AccessQuery{Dataset: t.Dataset, Table: t.Name})
	if err != nil {
		return err
	}
	d.total.Calls++
	d.total.Records += int64(res.Records)
	d.total.Transactions += res.Transactions
	d.total.Price += res.Price
	tbl, err := d.db.Ensure(t.Name, t.Schema)
	if err != nil {
		return err
	}
	if _, err := tbl.Insert(res.Batch.Rows()); err != nil {
		return err
	}
	d.downloaded[t.Name] = true
	return nil
}

// Query answers one SQL statement, downloading any referenced table that is
// not yet local. The report covers only this query's marginal market cost.
func (d *DownloadAll) Query(sql string) (engine.Report, error) {
	before := d.total
	parsed, err := sqlparse.Parse(sql)
	if err != nil {
		return engine.Report{}, err
	}
	for _, ref := range parsed.From {
		t, ok := d.cat.Lookup(ref.Name)
		if !ok {
			return engine.Report{}, fmt.Errorf("baseline: unknown table %s", ref.Name)
		}
		if err := d.ensureDownloaded(t); err != nil {
			return engine.Report{}, err
		}
	}
	// Everything needed is local now; plan and run against the shadow
	// catalog where all tables are local.
	bound, err := core.Bind(parsed, d.localCat)
	if err != nil {
		return engine.Report{}, err
	}
	st := stats.New()
	opt := core.Optimizer{Catalog: d.localCat, Store: semstore.New(d.db), Stats: st}
	plan, err := opt.Optimize(bound)
	if err != nil {
		return engine.Report{}, err
	}
	eng := engine.Engine{Store: semstore.New(d.db), Stats: st}
	if _, _, _, err := eng.ExecuteText(context.Background(), plan); err != nil {
		return engine.Report{}, err
	}
	marginal := engine.Report{
		Calls:        d.total.Calls - before.Calls,
		Records:      d.total.Records - before.Records,
		Transactions: d.total.Transactions - before.Transactions,
		Price:        d.total.Price - before.Price,
	}
	return marginal, nil
}

// TotalSpend reports the cumulative market cost.
func (d *DownloadAll) TotalSpend() engine.Report { return d.total }

// UpfrontCost computes the price of downloading the given tables wholly —
// the paper's "Download All" horizontal line.
func UpfrontCost(tables []*catalog.Table, tuplesPerTransaction int) int64 {
	var total int64
	for _, t := range tables {
		if t.Local {
			continue
		}
		total += rewrite.Price(float64(t.Cardinality), tuplesPerTransaction)
	}
	return total
}
