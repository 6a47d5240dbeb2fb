// Package engine executes PayLess plans (paper §3, steps 4–9): it issues
// the plan's RESTful calls through the call scheduler, records every call and
// its result in the semantic store, feeds row counts back to the statistics,
// materialises bind joins one call per distinct binding value, and offloads
// joins, residual predicates, grouping and ordering to the local DBMS.
//
// A plan names access paths, not boxes: every market access goes through
// one routine, buy, which plans the remainder of its call boxes against the
// live store (§4.2 applied at execution) with core.Remainder, the routine
// the optimizer priced them with — the access boxes of a scan, the
// coalesced binding groups of a bind join. Those calls fan out to a bounded
// worker pool (see parallel.go). Each batch is planned up front against a
// snapshot of the store and statistics and merged back in plan order, so
// billing, coverage geometry and feedback-histogram state are identical at
// every concurrency level.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"payless/internal/catalog"
	"payless/internal/core"
	"payless/internal/market"
	"payless/internal/obs"
	"payless/internal/region"
	"payless/internal/rewrite"
	"payless/internal/sched"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/stats"
	"payless/internal/storage"
	"payless/internal/value"
)

// Report accumulates what one query execution actually cost.
type Report struct {
	Calls        int64
	Records      int64
	Transactions int64
	Price        float64
}

// Add folds another report into r.
func (r *Report) Add(o Report) {
	r.Calls += o.Calls
	r.Records += o.Records
	r.Transactions += o.Transactions
	r.Price += o.Price
}

// Engine executes optimized plans.
type Engine struct {
	// Store is the semantic store and local DBMS. Required.
	Store *semstore.Store
	// Stats receives execution feedback. Required.
	Stats stats.Estimator
	// Sched issues the RESTful calls: the client's global call scheduler,
	// which single-flights identical concurrent calls, may merge adjacent
	// cross-query remainders, and hands each wire call to the market caller
	// below it (federation → transport).
	Sched *sched.Scheduler
	// Options mirrors the optimizer's toggles (SQR, consistency window).
	Options core.Options
	// Concurrency bounds the number of in-flight market calls per batch;
	// values <= 1 execute serially.
	Concurrency int
	// Trace, when non-nil, receives one record per market call (in
	// plan-merge order) plus semantic-store hit accounting. Nil disables
	// tracing at the cost of one nil check per instrumentation point.
	Trace *obs.Trace
	// Metrics, when non-nil, counts the rows the semantic store served,
	// traced or not.
	Metrics *obs.Metrics
}

// ExecuteText runs the plan under ctx and returns the result's column names
// and its rows rendered as text (storage.RenderRows), plus the market cost
// actually incurred. A plain projection renders straight from the columns
// its tuples read, without a row of values. Cancelling ctx stops in-flight
// market fan-out, keeping whatever partial results were already paid for.
func (e *Engine) ExecuteText(ctx context.Context, plan *core.Plan) (columns []string, rows [][]string, report Report, err error) {
	a := storage.NewArena()
	defer a.Release()
	t, rel, err := e.run(ctx, a, plan, &report)
	switch b := plan.Bound; {
	case err != nil:
		return nil, nil, report, err
	case plain(b.Query):
		return b.Output, t.Render(outputColumns(t, b)), report, nil
	}
	return rel.Schema.Names(), storage.RenderRows(rel.Rows), report, nil
}

// plain reports a query whose result is its SELECT list's columns as they
// are: no aggregate, DISTINCT or ORDER BY.
func plain(q *sqlparse.Query) bool {
	return !q.HasAggregates() && !q.Distinct && len(q.OrderBy) == 0
}

// run executes the plan's steps in a. A plain query's result is the tuples
// returned, at most LIMIT of them, and any other query's the relation.
//
// Relations are joined as row ids (storage.Tuples): a relation read from the
// store is the store's columns and a selection of their row ids, a join
// writes the ids of its pairs into lists of a per-query arena, and values
// are read only by the aggregator, the residuals and the projection.
func (e *Engine) run(ctx context.Context, a *storage.Arena, plan *core.Plan, report *Report) (storage.Tuples, storage.Relation, error) {
	b := plan.Bound
	if len(plan.Steps) == 0 {
		return storage.Tuples{}, storage.Relation{}, fmt.Errorf("plan has no steps")
	}
	// Nothing but the aggregate reads the last join of an aggregate query
	// (a cross residual would: it filters joined rows), so that join
	// streams into it.
	stream := b.Query.HasAggregates() && len(b.CrossResidual) == 0
	var cur storage.Tuples
	for i, step := range plan.Steps {
		rel := b.Rels[step.Rel]
		in, err := e.fetch(ctx, a, rel, step, cur, b, report)
		if err != nil {
			// A partial batch failure carries the query-level billed totals,
			// so the caller can account the spend without unpacking Report.
			if pe := (*PartialError)(nil); errors.As(err, &pe) {
				pe.Billed = *report
			}
			return cur, storage.Relation{}, err
		}
		in = filter(a, in, rel.Residual, func(c sqlparse.ColRef) storage.Col {
			return storage.Col{In: 0, Col: rel.Table.Schema.IndexOf(c.Column)}
		})
		if i == 0 {
			cur = in
			continue
		}
		lk, rk, err := joinColumns(b, step, cur, in)
		if err != nil {
			return cur, storage.Relation{}, err
		}
		if stream && i == len(plan.Steps)-1 {
			return cur, aggregate(a, b, cur, in, lk, rk), nil
		}
		cur = a.Join(cur, in, lk, rk)
	}
	cur = filter(a, cur, b.CrossResidual, func(c sqlparse.ColRef) storage.Col { return cur.Column(b.Cols[c]) })
	if !plain(b.Query) {
		return cur, project(a, cur, b), nil
	}
	if b.Query.Limit >= 0 {
		cur.N = min(cur.N, b.Query.Limit)
	}
	return cur, storage.Relation{}, nil
}

// fetch obtains the rows of one relation according to its access path.
func (e *Engine) fetch(ctx context.Context, a *storage.Arena, rel *core.Rel, step core.Step, prefix storage.Tuples, b *core.BoundQuery, report *Report) (storage.Tuples, error) {
	switch step.Kind {
	case core.LocalScan:
		if rel.Table.Local {
			return e.localScan(a, rel)
		}
		// A fully covered market relation is a zero-price access (Theorem
		// 2): the whole read is a semantic-store hit.
		out := e.stored(a, rel, rel.AccessBoxes())
		e.noteStoreServed(0, out.N, nil)
		return out, nil
	case core.MarketScan:
		boxes := rel.AccessBoxes()
		return e.buy(ctx, a, rel, boxes, boxes, report)
	case core.MarketBind:
		return e.bindScan(ctx, a, rel, step, prefix, b, report)
	default:
		return storage.Tuples{}, fmt.Errorf("unknown access kind %v", step.Kind)
	}
}

// localScan reads a local DBMS table as the calls for the relation's access
// boxes would: a row is kept when any box's call matches it, so a relation
// without boxes reads nothing.
func (e *Engine) localScan(a *storage.Arena, rel *core.Rel) (storage.Tuples, error) {
	tbl, ok := e.Store.DB().Lookup(rel.Table.Name)
	if !ok {
		return storage.Tuples{}, fmt.Errorf("local table %s not loaded", rel.Table.Name)
	}
	boxes := rel.AccessBoxes()
	filters := make([]catalog.Filter, len(boxes))
	for i, ab := range boxes {
		q, err := catalog.QueryForBox(rel.Table, ab)
		if err != nil {
			return storage.Tuples{}, err
		}
		filters[i] = catalog.CompileFilter(rel.Table, q)
	}
	rows := tbl.Relation().Rows
	return a.Filter(a.Whole(rel.Schema, rows), func(i int) bool {
		return slices.ContainsFunc(filters, func(f catalog.Filter) bool { return f.Matches(rows[i]) })
	}), nil
}

// stored reads the store's rows of rel inside each box, in box order, as
// ids into the store's columns.
func (e *Engine) stored(a *storage.Arena, rel *core.Rel, boxes []region.Box) storage.Tuples {
	list, cols := a.List(0), a.Columns(len(rel.Schema))
	n, all := e.Store.SelectIn(rel.Table, boxes, list, cols)
	return a.Source(rel.Schema, cols, n, list, all)
}

// buy obtains one market relation's rows inside the reads boxes. With SQR
// (§4.2) it plans the remainder of each calls box against the live store,
// buys and records those remainders as one batch through the worker pool,
// then reads the rows back from the store over reads; a plan holds no
// remainders, so a cached plan and a fresh one buy alike. Call boxes are
// pairwise disjoint (IN lists split an access region into separate
// intervals; binding groups are distinct on the bind dimension), so their
// remainder plans cannot overlap and one coverage snapshot serves them all.
// A scan's calls are its reads; a bind join's calls are its coalesced
// binding groups. Without SQR each read box is issued as-is and the rows
// are concatenated: the paper's baseline buys call by call.
func (e *Engine) buy(ctx context.Context, a *storage.Arena, rel *core.Rel, calls, reads []region.Box, report *Report) (storage.Tuples, error) {
	sqr, boxes := !e.Options.DisableSQR, reads
	if sqr {
		cfg := core.RewriteConfig(rel.Table, &e.Options)
		boxes = nil
		for _, cb := range calls {
			boxes = append(boxes, core.Remainder(e.Store, e.Stats, rel.Table.Name, cb, cfg, e.Options.Since, e.Trace).Boxes...)
		}
	}
	specs, err := specsForBoxes(rel.Table, boxes, sqr)
	if err != nil {
		return storage.Tuples{}, err
	}
	results, err := e.runBatch(ctx, specs, report)
	if err != nil {
		return storage.Tuples{}, err
	}
	if !sqr {
		var rows []value.Row
		for _, res := range results {
			rows = append(rows, res.Batch.Rows()...)
		}
		return a.Whole(rel.Schema, rows), nil
	}
	out := e.stored(a, rel, reads)
	e.noteStoreServed(len(specs), out.N, results)
	return out, nil
}

// bindScan accesses a relation one call per distinct binding value flowing
// from the prefix (the paper's bind join, Fig. 1c). The per-binding calls
// are independent — binding coordinates are distinct, so their call boxes
// are disjoint on the bind dimension — and issue as one batch.
func (e *Engine) bindScan(ctx context.Context, a *storage.Arena, rel *core.Rel, step core.Step, prefix storage.Tuples, b *core.BoundQuery, report *Report) (storage.Tuples, error) {
	if step.BindJoin < 0 || step.BindJoin >= len(b.Joins) {
		return storage.Tuples{}, fmt.Errorf("bind join index out of range")
	}
	myAttr, other, otherAttr := b.Joins[step.BindJoin].Toward(step.Rel)
	src := prefix.Column(b.Rels[other].Alias() + "." + otherAttr)
	if src.In < 0 {
		return storage.Tuples{}, fmt.Errorf("binding column %s.%s not in prefix", b.Rels[other].Alias(), otherAttr)
	}
	dim, attr := rel.Table.Dim(myAttr)
	if dim < 0 {
		return storage.Tuples{}, fmt.Errorf("attribute %s.%s is not queryable", rel.Table.Name, myAttr)
	}

	// Map the distinct binding values (value.ExactKey; a one-column key
	// table reads no row) onto valid coordinates inside the relation's box.
	// Values outside the attribute's domain or the relation's own predicate
	// range are skipped: the join would reject their rows anyway.
	var coords []int64
	seen := value.NewKeyTable(value.ExactKey, nil, 0)
	var v [1]value.Value
	for i := range prefix.N {
		if v[0] = prefix.Value(src, i); seen.Insert(nil, v[:], i) >= 0 {
			continue
		}
		coord, err := attr.Coord(normalizeBinding(attr, v[0]))
		if err != nil {
			continue
		}
		if _, ok := region.Point(coord).Intersect(rel.Box.Dims[dim]); ok {
			coords = append(coords, coord)
		}
	}
	slices.Sort(coords)
	coords = slices.Compact(coords)

	// Each binding coordinate reads its point box within every access box
	// (IN predicates may split the relation's access region).
	var reads []region.Box
	for _, coord := range coords {
		for _, ab := range rel.AccessBoxes() {
			if iv, ok := region.Point(coord).Intersect(ab.Dims[dim]); ok {
				pb := ab.Clone()
				pb.Dims[dim] = iv
				reads = append(reads, pb)
			}
		}
	}
	// With SQR, adjacent binding values may be coalesced into a single
	// range call when the merged box is estimated cheaper than per-value
	// calls — the paper's Fig. 9 bounding box B2 spanning known values.
	// Categorical bind attributes cannot express ranges (Fig. 8).
	calls := reads
	if !e.Options.DisableSQR {
		calls = e.coalesceBindings(rel, attr, dim, coords)
	}
	return e.buy(ctx, a, rel, calls, reads, report)
}

// noteStoreServed books the rows the semantic store served an access of
// outRows rows on the trace and the metrics. With zero remainder calls the
// access was fully covered — a store hit; otherwise the store served
// approximately the rows beyond the fresh records (an estimate: overlap
// dedup can make fresh rows and stored rows coincide).
func (e *Engine) noteStoreServed(specCount, outRows int, results []*market.Result) {
	hit, rows := specCount == 0, int64(outRows)
	for _, res := range results {
		if res != nil {
			rows -= int64(res.Records)
		}
	}
	if hit {
		e.Trace.AddStoreHit(rows)
	} else {
		e.Trace.AddStoreRows(rows)
	}
	e.Metrics.ObserveStoreServed(hit, rows)
}

// coalesceBindings groups sorted binding coordinates into call boxes over
// the relation's box, the hull of its access boxes. When the hull makes no
// call — a categorical attribute whose IN list split the access region
// cannot span its values — it groups them within each access box instead.
func (e *Engine) coalesceBindings(rel *core.Rel, attr catalog.Attribute, dim int, coords []int64) []region.Box {
	out := e.coalesce(rel, rel.Box, attr, dim, coords)
	if len(out) == 0 {
		return out
	}
	if _, err := catalog.QueryForBox(rel.Table, out[0]); err == nil {
		return out
	}
	out = out[:0]
	for _, ab := range rel.AccessBoxes() { // coords is sorted: ab's are a run
		i, _ := slices.BinarySearch(coords, ab.Dims[dim].Lo)
		j, _ := slices.BinarySearch(coords, ab.Dims[dim].Hi)
		out = append(out, e.coalesce(rel, ab, attr, dim, coords[i:j])...)
	}
	return out
}

// coalesce groups sorted binding coordinates into call boxes, each base
// with the bind dimension narrowed to the group. Only runs of consecutive
// coordinates may merge (the paper's Fig. 9 box B2 spans known values):
// merging across gaps would bet the bill on estimates for unknown
// in-between values. Within a consecutive run the merge still has to be
// estimated no more expensive than the per-value calls.
func (e *Engine) coalesce(rel *core.Rel, base region.Box, attr catalog.Attribute, dim int, coords []int64) []region.Box {
	boxFor := func(lo, hi int64) region.Box {
		b := base.Clone()
		b.Dims[dim] = region.Interval{Lo: lo, Hi: hi + 1}
		return b
	}
	if attr.Class == catalog.CategoricalAttr {
		out := make([]region.Box, 0, len(coords))
		for _, c := range coords {
			out = append(out, boxFor(c, c))
		}
		return out
	}
	t := e.Options.TuplesPer(rel.Table.Dataset)
	price := func(b region.Box) int64 {
		return rewrite.Price(e.Stats.Estimate(rel.Table.Name, b), t)
	}
	var out []region.Box
	i := 0
	for i < len(coords) {
		lo, hi := coords[i], coords[i]
		cost := price(boxFor(lo, hi))
		j := i + 1
		for j < len(coords) {
			if coords[j] != hi+1 {
				break // non-consecutive: unknown values in the gap
			}
			mergedCost := price(boxFor(lo, coords[j]))
			nextCost := price(boxFor(coords[j], coords[j]))
			if mergedCost > cost+nextCost {
				break
			}
			hi = coords[j]
			cost = mergedCost
			j++
		}
		out = append(out, boxFor(lo, hi))
		i = j
	}
	return out
}

// normalizeBinding coerces a binding value to the attribute's kind (e.g. an
// Int flowing into an Int attribute stays put; a Float joining an Int
// attribute truncates — join keys are normalised the same way).
func normalizeBinding(a catalog.Attribute, v value.Value) value.Value {
	if a.Type == value.Int && v.K == value.Float {
		return value.NewInt(v.AsInt())
	}
	return v
}

func (e *Engine) account(report *Report, res market.Result) {
	report.Calls++
	report.Records += int64(res.Records)
	report.Transactions += res.Transactions
	report.Price += res.Price
}

func evalCompare(v value.Value, op sqlparse.CompareOp, rhs value.Value) bool {
	cmp := v.Compare(rhs)
	switch op {
	case sqlparse.OpEq:
		return cmp == 0
	case sqlparse.OpNe:
		return cmp != 0
	case sqlparse.OpLt:
		return cmp < 0
	case sqlparse.OpLe:
		return cmp <= 0
	case sqlparse.OpGt:
		return cmp > 0
	case sqlparse.OpGe:
		return cmp >= 0
	default:
		return false
	}
}

// joinColumns maps the step's join edges onto key columns of the prefix
// and of the newly fetched relation.
func joinColumns(b *core.BoundQuery, step core.Step, prefix, fetched storage.Tuples) (lk, rk []storage.Col, err error) {
	for _, e := range step.Joins {
		newAttr, prefixRel, prefixAttr := b.Joins[e].Toward(step.Rel)
		lk = append(lk, prefix.Column(b.Rels[prefixRel].Alias()+"."+prefixAttr))
		rk = append(rk, fetched.Column(b.Rels[step.Rel].Alias()+"."+newAttr))
		if lk[len(lk)-1].In < 0 || rk[len(rk)-1].In < 0 {
			return nil, nil, fmt.Errorf("join columns not found for edge %d", e)
		}
	}
	return lk, rk, nil
}

// filter keeps t's tuples on which every condition holds: a column of col's
// compared to a literal, to an IN list or, in a cross residual, to another
// column.
func filter(a *storage.Arena, t storage.Tuples, conds []sqlparse.Condition, col func(sqlparse.ColRef) storage.Col) storage.Tuples {
	if len(conds) == 0 {
		return t
	}
	cols := make([][2]storage.Col, len(conds))
	for i, c := range conds {
		if cols[i][0] = col(c.Left); c.IsJoin() {
			cols[i][1] = col(*c.RightCol)
		}
	}
	return a.Filter(t, func(i int) bool {
		for x, c := range conds {
			l, r := cols[x][0], cols[x][1]
			v := t.Value(l, i)
			switch {
			case c.IsIn():
				if !slices.ContainsFunc(c.InVals, v.Equal) {
					return false
				}
			case c.IsJoin():
				if !evalCompare(v, c.Op, t.Value(r, i)) {
					return false
				}
			case !evalCompare(v, c.Op, *c.RightVal):
				return false
			}
		}
		return true
	})
}

// aggFuncs maps the SQL aggregates onto the local aggregator's.
var aggFuncs = map[sqlparse.AggName]storage.AggFunc{
	sqlparse.AggCount: storage.Count, sqlparse.AggSum: storage.Sum, sqlparse.AggAvg: storage.Avg,
	sqlparse.AggMin: storage.Min, sqlparse.AggMax: storage.Max,
}

// aggregatePlan locates the GROUP BY columns and the SELECT list's
// aggregates in the rows to be aggregated, at says where a named column is.
func aggregatePlan(at func(name string) int, b *core.BoundQuery) (groupIdx []int, aggs []storage.AggSpec) {
	q := b.Query
	for _, g := range q.GroupBy {
		groupIdx = append(groupIdx, at(b.Cols[g]))
	}
	for _, item := range q.Select {
		if item.Agg == sqlparse.AggNone {
			continue
		}
		spec := storage.AggSpec{Func: aggFuncs[item.Agg], Col: -1, As: b.Output[len(groupIdx)+len(aggs)]}
		if !item.AggStar {
			spec.Col = at(b.Cols[item.Col])
		}
		aggs = append(aggs, spec)
	}
	return groupIdx, aggs
}

// aggregate is project for an aggregate query over l's tuples or, when r
// has inputs, over the pairs of l's and r's joined on the keys lk and rk:
// a.Fold reads the columns the groups and the aggregates read a block at a
// time, the only values the aggregator reads.
func aggregate(a *storage.Arena, b *core.BoundQuery, l, r storage.Tuples, lk, rk []storage.Col) storage.Relation {
	both := storage.Tuples{In: append(l.In[:len(l.In):len(l.In)], r.In...)}
	var cols []storage.Col
	var in value.Schema
	groupIdx, aggs := aggregatePlan(func(name string) int {
		c := both.Column(name)
		if i := slices.Index(cols, c); i >= 0 || c.In < 0 {
			return i
		}
		cols, in = append(cols, c), append(in, both.In[c.In].Schema[c.Col])
		return len(cols) - 1
	}, b)
	agg := storage.NewAggregator(in, groupIdx, aggs)
	a.Fold(agg, l, r, lk, rk, cols)
	return finishAggregate(agg.Result(), b)
}

// finishAggregate turns the aggregator's output into the query's: the
// binder's output names, HAVING, then ORDER BY and LIMIT.
func finishAggregate(out storage.Relation, b *core.BoundQuery) storage.Relation {
	for i, name := range b.Output {
		out.Schema[i].Name = name
	}
	if having := b.Query.Having; len(having) > 0 {
		out = out.Select(func(row value.Row) bool {
			for i, h := range having {
				if !evalCompare(row[b.HavingIdx[i]], h.Op, h.Val) {
					return false
				}
			}
			return true
		})
	}
	return orderLimit(out, b)
}

// project applies the SELECT list to the tuples t: aggregation with GROUP
// BY, or plain projection, then ORDER BY and LIMIT.
func project(a *storage.Arena, t storage.Tuples, b *core.BoundQuery) storage.Relation {
	q := b.Query
	if q.HasAggregates() {
		return aggregate(a, b, t, storage.Tuples{}, nil, nil)
	}
	out := t.Project(outputColumns(t, b))
	for i, name := range b.Output {
		out.Schema[i].Name = name
	}
	if q.Distinct {
		out = out.Distinct()
	}
	return orderLimit(out, b)
}

// outputColumns locates a plain projection's SELECT list in t. SELECT *
// output order follows the FROM clause, not the join order the optimizer
// happened to choose.
func outputColumns(t storage.Tuples, b *core.BoundQuery) []storage.Col {
	cols := make([]storage.Col, len(b.Output))
	for i := range cols {
		if b.Star != nil {
			cols[i] = t.Column(b.Star[i])
		} else {
			cols[i] = t.Column(b.Cols[b.Query.Select[i].Col])
		}
	}
	return cols
}

// orderLimit applies ORDER BY, at the output positions the binder resolved,
// and LIMIT.
func orderLimit(out storage.Relation, b *core.BoundQuery) storage.Relation {
	q := b.Query
	if len(q.OrderBy) > 0 {
		desc := make([]bool, len(q.OrderBy))
		for i, o := range q.OrderBy {
			desc[i] = o.Desc
		}
		out = out.OrderBy(b.OrderIdx, desc)
	}
	if q.Limit >= 0 {
		out = out.Limit(q.Limit)
	}
	return out
}
