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
	"sort"

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

// ExecuteContext runs the plan under ctx and returns the final result
// relation plus the market cost actually incurred. Cancelling ctx stops
// in-flight market fan-out, keeping whatever partial results were already
// paid for.
func (e *Engine) ExecuteContext(ctx context.Context, plan *core.Plan) (storage.Relation, Report, error) {
	var report Report
	b := plan.Bound
	if len(plan.Steps) == 0 {
		return storage.Relation{}, report, fmt.Errorf("plan has no steps")
	}
	// Nothing but the aggregate reads the last join of an aggregate query
	// (a cross residual would: it filters joined rows), so that join streams
	// into it; every join before it copies only the columns a later step
	// reads (SELECT * reads them all).
	streamLast := len(plan.Steps) > 1 && b.Query.HasAggregates() && len(b.CrossResidual) == 0
	var need map[string]int
	if b.Star == nil && (len(plan.Steps) > 2 || (len(plan.Steps) == 2 && !streamLast)) {
		need = lastReads(plan)
	}
	// A partial batch failure carries the query-level billed totals, so the
	// caller can account the spend without unpacking Report out-of-band.
	fail := func(err error) (storage.Relation, Report, error) {
		var pe *PartialError
		if errors.As(err, &pe) {
			pe.Billed = report
		}
		return storage.Relation{}, report, err
	}
	if step := plan.Steps[0]; len(plan.Steps) == 1 && b.Query.HasAggregates() && len(b.CrossResidual) == 0 && e.fromStore(b.Rels[step.Rel], step) {
		out, err := e.aggregateScan(ctx, b.Rels[step.Rel], step, b, &report)
		if err != nil {
			return fail(err)
		}
		return out, report, nil
	}
	var cur storage.Relation
	for i, step := range plan.Steps {
		rel := b.Rels[step.Rel]
		fetched, err := e.fetch(ctx, rel, step, cur, b, &report)
		if err != nil {
			return fail(err)
		}
		fetched = applyResidual(fetched, rel)
		fetched.Schema = rel.Schema
		if i == 0 {
			cur = fetched
			continue
		}
		lc, rc, err := joinColumns(b, step, cur.Schema, fetched.Schema)
		if err != nil {
			return storage.Relation{}, report, err
		}
		if streamLast && i == len(plan.Steps)-1 {
			return aggregateJoin(cur, fetched, lc, rc, b), report, nil
		}
		cur = storage.HashJoinKeep(cur, fetched, lc, rc, keepColumns(need, i, cur.Schema, fetched.Schema))
	}
	return project(applyCrossResidual(cur, b), b), report, nil
}

// lastReads maps every column the binder recorded as read after the scans
// to the last step that reads it: its relation's join edges are read by
// the steps that join or bind on them, and the output, its aggregates and
// the cross residuals after the last step, len(plan.Steps).
func lastReads(plan *core.Plan) map[string]int {
	b, end := plan.Bound, len(plan.Steps)
	need := make(map[string]int, len(b.Cols))
	for _, item := range b.Query.Select {
		if !item.AggStar {
			need[b.Cols[item.Col]] = end
		}
	}
	for _, g := range b.Query.GroupBy {
		need[b.Cols[g]] = end
	}
	for _, c := range b.CrossResidual {
		need[b.Cols[c.Left]], need[b.Cols[*c.RightCol]] = end, end
	}
	read := func(j, e int) {
		for _, rel := range [2]int{b.Joins[e].L, b.Joins[e].R} {
			attr, _, _ := b.Joins[e].Toward(rel)
			sch := b.Rels[rel].Schema
			if c := prefixColumn(sch, b.Rels[rel].Alias(), attr); c >= 0 && need[sch[c].Name] < j {
				need[sch[c].Name] = j
			}
		}
	}
	for j, step := range plan.Steps {
		for _, e := range step.Joins {
			read(j, e)
		}
		if step.Kind == core.MarketBind && step.BindJoin >= 0 && step.BindJoin < len(b.Joins) {
			read(j, step.BindJoin)
		}
	}
	return need
}

// keepColumns lists the columns of a join's concatenated schema l++r that a
// step after step reads, or nil when all of them are.
func keepColumns(need map[string]int, step int, l, r value.Schema) []int {
	if need == nil {
		return nil
	}
	keep := make([]int, 0, len(need))
	for i, c := range l {
		if need[c.Name] > step {
			keep = append(keep, i)
		}
	}
	for i, c := range r {
		if need[c.Name] > step {
			keep = append(keep, len(l)+i)
		}
	}
	if len(keep) == len(l)+len(r) {
		return nil
	}
	return keep
}

// fetch obtains the rows of one relation according to its access path.
func (e *Engine) fetch(ctx context.Context, rel *core.Rel, step core.Step, prefix storage.Relation, b *core.BoundQuery, report *Report) (storage.Relation, error) {
	switch step.Kind {
	case core.LocalScan:
		if rel.Table.Local {
			return e.localScan(rel)
		}
		// A fully covered market relation is a zero-price access (Theorem
		// 2): the whole read is a semantic-store hit.
		out, err := e.storedRows(rel.Table, rel.AccessBoxes())
		if err == nil {
			e.storeServed(true, int64(len(out.Rows)))
		}
		return out, err
	case core.MarketScan:
		boxes := rel.AccessBoxes()
		return e.buy(ctx, rel.Table, boxes, boxes, report)
	case core.MarketBind:
		return e.bindScan(ctx, rel, step, prefix, b, report)
	default:
		return storage.Relation{}, fmt.Errorf("unknown access kind %v", step.Kind)
	}
}

// localScan reads a local DBMS table as the calls for the relation's access
// boxes would: a row is kept when any box's call matches it, so a relation
// without boxes reads nothing.
func (e *Engine) localScan(rel *core.Rel) (storage.Relation, error) {
	tbl, ok := e.Store.DB().Lookup(rel.Table.Name)
	if !ok {
		return storage.Relation{}, fmt.Errorf("local table %s not loaded", rel.Table.Name)
	}
	boxes := rel.AccessBoxes()
	filters := make([]catalog.Filter, len(boxes))
	for i, ab := range boxes {
		q, err := catalog.QueryForBox(rel.Table, ab)
		if err != nil {
			return storage.Relation{}, err
		}
		filters[i] = catalog.CompileFilter(rel.Table, q)
	}
	return tbl.Relation().Select(func(row value.Row) bool {
		for _, f := range filters {
			if f.Matches(row) {
				return true
			}
		}
		return false
	}), nil
}

// storedRows reads the store's rows inside each box, in box order. A single
// box's rows come back as the store handed them out, uncopied.
func (e *Engine) storedRows(meta *catalog.Table, boxes []region.Box) (storage.Relation, error) {
	out := storage.Relation{Schema: meta.Schema}
	for _, ab := range boxes {
		got, err := e.Store.RowsIn(meta, ab)
		if err != nil {
			return storage.Relation{}, err
		}
		if len(boxes) == 1 {
			return got, nil
		}
		out.Rows = append(out.Rows, got.Rows...)
	}
	return out, nil
}

// buy obtains one market relation's rows inside the reads boxes. With SQR
// (§4.2) it plans the remainder of each calls box against the live store,
// buys and records those remainders as one batch through the worker pool,
// then reads the rows back from the store over reads; a plan holds no
// remainders, so a cached plan and a fresh one buy alike. A scan's calls
// are its reads; a bind join's calls are its coalesced binding groups.
// Without SQR each read box is issued as-is and the rows are concatenated:
// the paper's baseline buys call by call.
func (e *Engine) buy(ctx context.Context, meta *catalog.Table, calls, reads []region.Box, report *Report) (storage.Relation, error) {
	if e.Options.DisableSQR {
		specs, err := specsForBoxes(meta, reads, false)
		if err != nil {
			return storage.Relation{}, err
		}
		results, err := e.runBatch(ctx, specs, report)
		if err != nil {
			return storage.Relation{}, err
		}
		out := storage.Relation{Schema: meta.Schema.Clone()}
		for _, res := range results {
			out.Rows = append(out.Rows, res.Rows...)
		}
		return out, nil
	}
	n, results, err := e.buyRemainders(ctx, meta, calls, report)
	if err != nil {
		return storage.Relation{}, err
	}
	out, err := e.storedRows(meta, reads)
	if err != nil {
		return storage.Relation{}, err
	}
	e.noteStoreServed(n, len(out.Rows), results)
	return out, nil
}

// buyRemainders plans the remainder of each calls box against the live
// store, then buys and records those remainders as one batch through the
// worker pool. It returns how many calls it issued and their results. Call
// boxes are pairwise disjoint (IN lists split an access region into
// separate intervals; binding groups are distinct on the bind dimension),
// so their remainder plans cannot overlap and one coverage snapshot serves
// them all.
func (e *Engine) buyRemainders(ctx context.Context, meta *catalog.Table, calls []region.Box, report *Report) (int, []*market.Result, error) {
	cfg := core.RewriteConfig(meta, &e.Options)
	var rem []region.Box
	for _, cb := range calls {
		rem = append(rem, core.Remainder(e.Store, e.Stats, meta.Name, cb, cfg, e.Options.Since, e.Trace).Boxes...)
	}
	specs, err := specsForBoxes(meta, rem, true)
	if err != nil {
		return 0, nil, err
	}
	results, err := e.runBatch(ctx, specs, report)
	return len(specs), results, err
}

// fromStore reports whether a scan's rows are the store's rows inside its
// access boxes: a covered market relation's, or a market scan's once SQR has
// recorded its remainders.
func (e *Engine) fromStore(rel *core.Rel, step core.Step) bool {
	return step.Kind == core.LocalScan && !rel.Table.Local || step.Kind == core.MarketScan && !e.Options.DisableSQR
}

// aggregateScan is project over the one relation of an aggregate query
// whose rows come from the store (fromStore), without those rows in
// between: after a market scan's remainders are bought, the store's rows
// inside each access box go, in storedRows order, through the relation's
// residual straight into the aggregator.
func (e *Engine) aggregateScan(ctx context.Context, rel *core.Rel, step core.Step, b *core.BoundQuery, report *Report) (storage.Relation, error) {
	boxes := rel.AccessBoxes()
	calls := 0
	var results []*market.Result
	if step.Kind == core.MarketScan {
		var err error
		if calls, results, err = e.buyRemainders(ctx, rel.Table, boxes, report); err != nil {
			return storage.Relation{}, err
		}
	}
	groupIdx, aggs := aggregatePlan(rel.Schema, b)
	agg := storage.NewAggregator(rel.Schema, groupIdx, aggs)
	keep := residualFilter(rel.Table.Schema, rel)
	add := func(row value.Row) {
		if keep == nil || keep(row) {
			agg.Add(row, nil)
		}
	}
	rows := 0
	for _, ab := range boxes {
		rows += e.Store.EachIn(rel.Table, ab, add)
	}
	e.noteStoreServed(calls, rows, results)
	return finishAggregate(agg.Result(), b), nil
}

// bindScan accesses a relation one call per distinct binding value flowing
// from the prefix (the paper's bind join, Fig. 1c). The per-binding calls
// are independent — binding coordinates are distinct, so their call boxes
// are disjoint on the bind dimension — and issue as one batch.
func (e *Engine) bindScan(ctx context.Context, rel *core.Rel, step core.Step, prefix storage.Relation, b *core.BoundQuery, report *Report) (storage.Relation, error) {
	if step.BindJoin < 0 || step.BindJoin >= len(b.Joins) {
		return storage.Relation{}, fmt.Errorf("bind join index out of range")
	}
	myAttr, other, otherAttr := b.Joins[step.BindJoin].Toward(step.Rel)
	srcCol := prefixColumn(prefix.Schema, b.Rels[other].Alias(), otherAttr)
	if srcCol < 0 {
		return storage.Relation{}, fmt.Errorf("binding column %s.%s not in prefix", b.Rels[other].Alias(), otherAttr)
	}
	bindings := prefix.DistinctValues(srcCol)

	dim, attr := rel.Table.Dim(myAttr)
	if dim < 0 {
		return storage.Relation{}, fmt.Errorf("attribute %s.%s is not queryable", rel.Table.Name, myAttr)
	}

	// Map binding values onto valid coordinates inside the relation's box.
	// Values outside the attribute's domain or the relation's own predicate
	// range are skipped: the join would reject their rows anyway.
	var coords []int64
	seen := make(map[int64]bool)
	for _, v := range bindings {
		coord, err := attr.Coord(normalizeBinding(attr, v))
		if err != nil {
			continue
		}
		if _, ok := region.Point(coord).Intersect(rel.Box.Dims[dim]); !ok {
			continue
		}
		if seen[coord] {
			continue
		}
		seen[coord] = true
		coords = append(coords, coord)
	}
	sort.Slice(coords, func(i, j int) bool { return coords[i] < coords[j] })

	// Each binding coordinate reads its point box within every access box
	// (IN predicates may split the relation's access region).
	var reads []region.Box
	for _, coord := range coords {
		for _, ab := range rel.AccessBoxes() {
			iv, ok := region.Point(coord).Intersect(ab.Dims[dim])
			if !ok {
				continue
			}
			pb := ab.Clone()
			pb.Dims[dim] = iv
			reads = append(reads, pb)
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
	return e.buy(ctx, rel.Table, calls, reads, report)
}

// noteStoreServed attributes a SQR access's output rows between freshly
// bought records and rows the semantic store already owned. With zero
// remainder calls the access was fully covered — a store hit; otherwise
// the store served approximately the rows beyond the fresh records (an
// estimate: overlap dedup can make fresh rows and stored rows coincide).
func (e *Engine) noteStoreServed(specCount, outRows int, results []*market.Result) {
	if specCount == 0 {
		e.storeServed(true, int64(outRows))
		return
	}
	var fresh int
	for _, res := range results {
		if res != nil {
			fresh += res.Records
		}
	}
	e.storeServed(false, int64(outRows-fresh))
}

// storeServed books rows the semantic store served one access on the trace
// and the metrics; hit marks an access served entirely from the store.
func (e *Engine) storeServed(hit bool, rows int64) {
	if hit {
		e.Trace.AddStoreHit(rows)
	} else {
		e.Trace.AddStoreRows(rows)
	}
	e.Metrics.ObserveStoreServed(hit, rows)
}

// coalesceBindings groups sorted binding coordinates into call boxes.
// Only runs of consecutive coordinates may merge (the paper's Fig. 9 box B2
// spans known values): merging across gaps would bet the bill on estimates
// for unknown in-between values. Within a consecutive run the merge still
// has to be estimated no more expensive than the per-value calls.
func (e *Engine) coalesceBindings(rel *core.Rel, attr catalog.Attribute, dim int, coords []int64) []region.Box {
	boxFor := func(lo, hi int64) region.Box {
		b := rel.Box.Clone()
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

// applyResidual filters fetched rows by the relation's non-pushable
// constant predicates.
func applyResidual(rel storage.Relation, r *core.Rel) storage.Relation {
	if keep := residualFilter(rel.Schema, r); keep != nil {
		return rel.Select(keep)
	}
	return rel
}

// residualFilter is the test of r's non-pushable constant predicates on a
// row of schema, or nil when r has none.
func residualFilter(schema value.Schema, r *core.Rel) func(value.Row) bool {
	if len(r.Residual) == 0 {
		return nil
	}
	cols := make([]int, len(r.Residual))
	for i, cond := range r.Residual {
		cols[i] = schema.IndexOf(cond.Left.Column)
	}
	return func(row value.Row) bool {
		for i, cond := range r.Residual {
			idx := cols[i]
			if idx < 0 {
				return false
			}
			if cond.IsIn() {
				hit := false
				for _, v := range cond.InVals {
					if row[idx].Equal(v) {
						hit = true
						break
					}
				}
				if !hit {
					return false
				}
				continue
			}
			if !evalCompare(row[idx], cond.Op, *cond.RightVal) {
				return false
			}
		}
		return true
	}
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

// prefixColumn finds "alias.attr" in a qualified schema.
func prefixColumn(schema value.Schema, alias, attr string) int {
	return schema.IndexOf(alias + "." + attr)
}

// joinColumns maps the step's join edges onto column index pairs between
// the prefix schema and the newly fetched relation's schema.
func joinColumns(b *core.BoundQuery, step core.Step, prefixSchema, newSchema value.Schema) (lc, rc []int, err error) {
	for _, eIdx := range step.Joins {
		newAttr, prefixRel, prefixAttr := b.Joins[eIdx].Toward(step.Rel)
		pc := prefixColumn(prefixSchema, b.Rels[prefixRel].Alias(), prefixAttr)
		nc := prefixColumn(newSchema, b.Rels[step.Rel].Alias(), newAttr)
		if pc < 0 || nc < 0 {
			return nil, nil, fmt.Errorf("join columns not found for edge %d", eIdx)
		}
		lc = append(lc, pc)
		rc = append(rc, nc)
	}
	return lc, rc, nil
}

// applyCrossResidual evaluates non-equi column-to-column conditions on the
// joined relation.
func applyCrossResidual(rel storage.Relation, b *core.BoundQuery) storage.Relation {
	if len(b.CrossResidual) == 0 {
		return rel
	}
	type pair struct {
		l, r int
		op   sqlparse.CompareOp
	}
	pairs := make([]pair, len(b.CrossResidual))
	for i, cond := range b.CrossResidual {
		l, r := b.Cols[cond.Left], b.Cols[*cond.RightCol]
		pairs[i] = pair{l: rel.Schema.IndexOf(l), r: rel.Schema.IndexOf(r), op: cond.Op}
	}
	return rel.Select(func(row value.Row) bool {
		for _, p := range pairs {
			if !evalCompare(row[p.l], p.op, row[p.r]) {
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
// aggregates in the schema of the rows to be aggregated.
func aggregatePlan(schema value.Schema, b *core.BoundQuery) (groupIdx []int, aggs []storage.AggSpec) {
	q := b.Query
	for _, g := range q.GroupBy {
		groupIdx = append(groupIdx, schema.IndexOf(b.Cols[g]))
	}
	for _, item := range q.Select {
		if item.Agg == sqlparse.AggNone {
			continue
		}
		spec := storage.AggSpec{Func: aggFuncs[item.Agg], Col: -1, As: b.Output[len(groupIdx)+len(aggs)]}
		if !item.AggStar {
			spec.Col = schema.IndexOf(b.Cols[item.Col])
		}
		aggs = append(aggs, spec)
	}
	return groupIdx, aggs
}

// aggregateJoin is project over HashJoin(l, r, lc, rc) for an aggregate
// query, without the joined relation in between.
func aggregateJoin(l, r storage.Relation, lc, rc []int, b *core.BoundQuery) storage.Relation {
	joined := storage.JoinSchema(l.Schema, r.Schema, nil)
	groupIdx, aggs := aggregatePlan(joined, b)
	agg := storage.NewAggregator(joined, groupIdx, aggs)
	storage.EachJoined(l, r, lc, rc, agg.Add)
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

// project applies the SELECT list: aggregation with GROUP BY, or plain
// projection, then ORDER BY and LIMIT.
func project(rel storage.Relation, b *core.BoundQuery) storage.Relation {
	q := b.Query
	if q.HasAggregates() {
		groupIdx, aggs := aggregatePlan(rel.Schema, b)
		return finishAggregate(storage.Aggregate(rel, groupIdx, aggs), b)
	}
	// SELECT * output order follows the FROM clause, not the join order the
	// optimizer happened to choose.
	idx := make([]int, len(b.Output))
	identity := len(idx) == len(rel.Schema)
	for i := range idx {
		if b.Star != nil {
			idx[i] = rel.Schema.IndexOf(b.Star[i])
		} else {
			idx[i] = rel.Schema.IndexOf(b.Cols[q.Select[i].Col])
		}
		identity = identity && idx[i] == i
	}
	// Rows are immutable: a projection that keeps every column in place
	// (SELECT * over one relation) returns them under a fresh schema.
	var out storage.Relation
	if identity {
		out = storage.Relation{Schema: rel.Schema.Clone(), Rows: rel.Rows}
	} else {
		out = rel.Project(idx)
	}
	for i, name := range b.Output {
		out.Schema[i].Name = name
	}
	if q.Distinct {
		out = out.Distinct()
	}
	return orderLimit(out, b)
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
