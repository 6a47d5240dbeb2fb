package payless

import (
	"context"
	"sort"
	"time"

	"payless/internal/core"
)

// BatchResult is the outcome of one statement inside a batch.
type BatchResult struct {
	// Index is the statement's position in the submitted batch.
	Index int
	*Result
}

// QueryBatch executes a batch of statements with multi-query optimization —
// the extension the paper's conclusion proposes ("we will incorporate
// multi-query optimization in PayLess if users are willing to defer theirs
// to become a batch").
//
// With semantic query rewriting, the total price of a query set is roughly
// the price of the union of the regions it touches — but the execution
// order still matters at the margins: runs that fetch large covering
// regions first avoid paying per-call ceil(·/t) rounding on many small
// remainder slivers later, and subsumed queries become entirely free.
// QueryBatch therefore orders statements by descending estimated price
// before executing them, re-estimating after each execution (the semantic
// store grows as the batch runs). Results are returned in submission order.
// Each statement is admitted, executed and booked exactly as Query would:
// the Admitter's reservation, failed-statement spend, metrics, audit.
func (c *Client) QueryBatch(sqls []string) ([]BatchResult, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer c.done()
	ctx, closeQuery := c.sched.Open(context.Background())
	defer closeQuery()
	type pending struct {
		idx   int
		bound *core.BoundQuery
	}
	var todo []pending
	for i, sql := range sqls {
		bound, _, err := c.front(sql, nil, nil, nil)
		if err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
		todo = append(todo, pending{idx: i, bound: bound})
	}

	opts := c.options()
	results := make([]BatchResult, 0, len(todo))
	for len(todo) > 0 {
		// Re-optimize everything still pending against the current store
		// state and pick the most expensive statement next.
		opt := core.Optimizer{Catalog: c.cat, Store: c.store, Stats: c.stats, Options: opts}
		type costed struct {
			p    pending
			plan *core.Plan
		}
		plans := make([]costed, 0, len(todo))
		for _, p := range todo {
			plan, err := opt.Optimize(p.bound)
			if err != nil {
				return nil, &BatchError{Index: p.idx, Err: stageErr(StageOptimize, err)}
			}
			plans = append(plans, costed{p: p, plan: plan})
		}
		sort.SliceStable(plans, func(i, j int) bool {
			if plans[i].plan.EstTrans != plans[j].plan.EstTrans {
				return plans[i].plan.EstTrans > plans[j].plan.EstTrans
			}
			return plans[i].p.idx < plans[j].p.idx
		})
		pick := plans[0]

		// The latency histogram counts the statement's own optimization, as
		// Query's does. Only the executed plan is booked, not the rounds'
		// re-optimizations.
		sql := sqls[pick.p.idx]
		tr := c.beginTrace(sql)
		c.bookPlan(tr, pick.plan)
		res, err := c.execute(ctx, sql, pick.plan, opts, tr, time.Now().Add(-pick.plan.Optimized))
		if err != nil {
			return nil, &BatchError{Index: pick.p.idx, Err: err}
		}
		results = append(results, BatchResult{Index: pick.p.idx, Result: res})

		// Drop the executed statement.
		next := todo[:0]
		for _, p := range todo {
			if p.idx != pick.p.idx {
				next = append(next, p)
			}
		}
		todo = next
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	return results, nil
}

// TableCoverage describes how much of a market table PayLess already owns.
type TableCoverage struct {
	Table string
	// StoredCalls is the number of recorded RESTful calls.
	StoredCalls int
	// StoredRows is the number of materialised (deduplicated) rows.
	StoredRows int
	// CoveredFraction is the stored rows divided by the table's published
	// cardinality, capped at 1.
	CoveredFraction float64
	// FullyCovered reports whether the whole queryable space is covered
	// (further whole-table queries are free).
	FullyCovered bool
}

// Coverage reports the semantic store's coverage of every market table. It
// only reads the store; it prices nothing.
func (c *Client) Coverage() []TableCoverage {
	var out []TableCoverage
	for _, t := range c.cat.Tables() {
		if t.Local {
			continue
		}
		tc := TableCoverage{
			Table:        t.Name,
			StoredCalls:  c.store.EntryCount(t.Name),
			StoredRows:   c.store.StoredRowCount(t.Name),
			FullyCovered: c.store.Covered(t.Name, t.FullBox(), c.options().Since),
		}
		if t.Cardinality > 0 {
			tc.CoveredFraction = float64(tc.StoredRows) / float64(t.Cardinality)
			if tc.CoveredFraction > 1 {
				tc.CoveredFraction = 1
			}
		}
		out = append(out, tc)
	}
	return out
}
