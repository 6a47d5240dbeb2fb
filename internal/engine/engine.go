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
	"strings"

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
	quals := make([]value.Schema, len(plan.Steps))
	for i, step := range plan.Steps {
		rel := b.Rels[step.Rel]
		quals[i] = qualify(rel.Alias(), rel.Table.Schema)
	}
	// Nothing but the aggregate reads the last join of an aggregate query
	// (a cross residual would: it filters joined rows), so that join streams
	// into it; every join before it copies only the columns the plan reads.
	streamLast := len(plan.Steps) > 1 && b.Query.HasAggregates() && len(b.CrossResidual) == 0
	var need map[string]bool
	if len(plan.Steps) > 2 || (len(plan.Steps) == 2 && !streamLast) {
		need = neededColumns(b, quals)
	}
	var cur storage.Relation
	for i, step := range plan.Steps {
		rel := b.Rels[step.Rel]
		fetched, err := e.fetch(ctx, rel, step, cur, b, &report)
		if err != nil {
			// A partial batch failure carries the query-level billed totals,
			// so the caller can account the spend without unpacking Report
			// out-of-band.
			var pe *PartialError
			if errors.As(err, &pe) {
				pe.Billed = report
			}
			return storage.Relation{}, report, err
		}
		fetched = applyResidual(fetched, rel)
		fetched.Schema = quals[i]
		if i == 0 {
			cur = fetched
			continue
		}
		lc, rc, err := joinColumns(b, step, cur.Schema, fetched.Schema)
		if err != nil {
			return storage.Relation{}, report, err
		}
		if streamLast && i == len(plan.Steps)-1 {
			out, err := aggregateJoin(cur, fetched, lc, rc, b)
			return out, report, err
		}
		cur = storage.HashJoinKeep(cur, fetched, lc, rc, keepColumns(need, cur.Schema, fetched.Schema))
	}
	cur, err := applyCrossResidual(cur, b)
	if err != nil {
		return storage.Relation{}, report, err
	}
	out, err := project(cur, b)
	if err != nil {
		return storage.Relation{}, report, err
	}
	return out, report, nil
}

// neededColumns resolves, once per plan, every column reference evaluated
// after the scans — join edges (bind joins read theirs from the prefix),
// cross residuals, the SELECT list and GROUP BY; HAVING and ORDER BY address
// the output — against the concatenation of every step's qualified schema
// (what the last join would produce if nothing were dropped), by the rules
// the operators themselves use (resolveQualified). It returns the names of
// the columns hit. Nil means every column is needed: SELECT *, or a
// reference that does not resolve — the operator that owns it reports that
// error, at the point it always has.
func neededColumns(b *core.BoundQuery, quals []value.Schema) map[string]bool {
	q := b.Query
	var full value.Schema
	for _, s := range quals {
		full = append(full, s...)
	}
	need := make(map[string]bool)
	ok := true
	hit := func(idx int, err error) {
		if err != nil || idx < 0 {
			ok = false
			return
		}
		need[full[idx].Name] = true
	}
	for _, j := range b.Joins {
		hit(prefixColumn(full, b.Rels[j.L].Alias(), j.LAttr), nil)
		hit(prefixColumn(full, b.Rels[j.R].Alias(), j.RAttr), nil)
	}
	for _, cond := range b.CrossResidual {
		hit(resolveQualified(full, b, cond.Left))
		hit(resolveQualified(full, b, *cond.RightCol))
	}
	for _, item := range q.Select {
		switch {
		case item.Star:
			ok = false
		case !item.AggStar:
			hit(resolveQualified(full, b, item.Col))
		}
	}
	for _, g := range q.GroupBy {
		hit(resolveQualified(full, b, g))
	}
	if !ok {
		return nil
	}
	return need
}

// keepColumns lists the needed columns of a join's concatenated schema l++r,
// or nil when all of them are.
func keepColumns(need map[string]bool, l, r value.Schema) []int {
	if need == nil {
		return nil
	}
	keep := make([]int, 0, len(need))
	for i, c := range l {
		if need[c.Name] {
			keep = append(keep, i)
		}
	}
	for i, c := range r {
		if need[c.Name] {
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

// localScan reads a local DBMS table and applies the pushable predicates.
func (e *Engine) localScan(rel *core.Rel) (storage.Relation, error) {
	tbl, ok := e.Store.DB().Lookup(rel.Table.Name)
	if !ok {
		return storage.Relation{}, fmt.Errorf("local table %s not loaded", rel.Table.Name)
	}
	return tbl.Relation().Select(catalog.CompileFilter(rel.Table, rel.Query).Matches), nil
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
	// Call boxes are pairwise disjoint (IN lists split an access region into
	// separate intervals; binding groups are distinct on the bind dimension),
	// so their remainder plans cannot overlap and one coverage snapshot
	// serves them all.
	cfg := core.RewriteConfig(meta, &e.Options)
	var rem []region.Box
	for _, cb := range calls {
		rem = append(rem, core.Remainder(e.Store, e.Stats, meta.Name, cb, cfg, e.Options.Since, e.Trace).Boxes...)
	}
	specs, err := specsForBoxes(meta, rem, true)
	if err != nil {
		return storage.Relation{}, err
	}
	results, err := e.runBatch(ctx, specs, report)
	if err != nil {
		return storage.Relation{}, err
	}
	out, err := e.storedRows(meta, reads)
	if err != nil {
		return storage.Relation{}, err
	}
	e.noteStoreServed(len(specs), len(out.Rows), results)
	return out, nil
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
	if len(r.Residual) == 0 {
		return rel
	}
	cols := make([]int, len(r.Residual))
	for i, cond := range r.Residual {
		cols[i] = rel.Schema.IndexOf(cond.Left.Column)
	}
	return rel.Select(func(row value.Row) bool {
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
	})
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

// qualify prefixes every column with "alias." for unambiguous joins.
func qualify(alias string, schema value.Schema) value.Schema {
	out := make(value.Schema, len(schema))
	for i, c := range schema {
		out[i] = value.Column{Name: alias + "." + c.Name, Type: c.Type}
	}
	return out
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
func applyCrossResidual(rel storage.Relation, b *core.BoundQuery) (storage.Relation, error) {
	if len(b.CrossResidual) == 0 {
		return rel, nil
	}
	type pair struct {
		l, r int
		op   sqlparse.CompareOp
	}
	var pairs []pair
	for _, cond := range b.CrossResidual {
		li, err := resolveQualified(rel.Schema, b, cond.Left)
		if err != nil {
			return storage.Relation{}, err
		}
		ri, err := resolveQualified(rel.Schema, b, *cond.RightCol)
		if err != nil {
			return storage.Relation{}, err
		}
		pairs = append(pairs, pair{l: li, r: ri, op: cond.Op})
	}
	return rel.Select(func(row value.Row) bool {
		for _, p := range pairs {
			if !evalCompare(row[p.l], p.op, row[p.r]) {
				return false
			}
		}
		return true
	}), nil
}

// resolveQualified finds a column reference in a qualified joined schema.
func resolveQualified(schema value.Schema, b *core.BoundQuery, ref sqlparse.ColRef) (int, error) {
	if ref.Table != "" {
		idx := schema.IndexOf(ref.Table + "." + ref.Column)
		if idx < 0 {
			return 0, fmt.Errorf("column %s not found", ref)
		}
		return idx, nil
	}
	found := -1
	suffix := "." + strings.ToLower(ref.Column)
	for i, c := range schema {
		if strings.HasSuffix(strings.ToLower(c.Name), suffix) {
			if found >= 0 {
				return 0, fmt.Errorf("ambiguous column %s", ref)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("column %s not found", ref)
	}
	return found, nil
}

// aggregatePlan resolves the GROUP BY columns and the SELECT list's
// aggregates against the schema of the rows to be aggregated.
func aggregatePlan(schema value.Schema, b *core.BoundQuery) (groupIdx []int, aggs []storage.AggSpec, err error) {
	q := b.Query
	for _, g := range q.GroupBy {
		idx, err := resolveQualified(schema, b, g)
		if err != nil {
			return nil, nil, err
		}
		groupIdx = append(groupIdx, idx)
	}
	for _, item := range q.Select {
		if item.Agg == sqlparse.AggNone {
			continue
		}
		// Name the output column by its alias or its SELECT-list text,
		// so HAVING and ORDER BY can address it.
		spec := storage.AggSpec{Col: -1, As: item.Alias}
		if spec.As == "" {
			spec.As = item.String()
		}
		switch item.Agg {
		case sqlparse.AggCount:
			spec.Func = storage.Count
		case sqlparse.AggSum:
			spec.Func = storage.Sum
		case sqlparse.AggAvg:
			spec.Func = storage.Avg
		case sqlparse.AggMin:
			spec.Func = storage.Min
		case sqlparse.AggMax:
			spec.Func = storage.Max
		}
		if !item.AggStar {
			idx, err := resolveQualified(schema, b, item.Col)
			if err != nil {
				return nil, nil, err
			}
			spec.Col = idx
		}
		aggs = append(aggs, spec)
	}
	return groupIdx, aggs, nil
}

// aggregateJoin is project over HashJoin(l, r, lc, rc) for an aggregate
// query, without the joined relation in between.
func aggregateJoin(l, r storage.Relation, lc, rc []int, b *core.BoundQuery) (storage.Relation, error) {
	joined := append(l.Schema.Clone(), r.Schema...)
	groupIdx, aggs, err := aggregatePlan(joined, b)
	if err != nil {
		return storage.Relation{}, err
	}
	agg := storage.NewAggregator(joined, groupIdx, aggs)
	storage.EachJoined(l, r, lc, rc, agg.Add)
	return finishAggregate(agg.Result(), b)
}

// finishAggregate turns the aggregator's output into the query's: group
// columns under their query-text names, HAVING, then ORDER BY and LIMIT.
func finishAggregate(out storage.Relation, b *core.BoundQuery) (storage.Relation, error) {
	q := b.Query
	// Non-aggregate select items must be group-by columns; the grouped
	// output carries them first, in GROUP BY order, renamed to their
	// query-text form (e.g. "City" instead of the internal qualified
	// "Station.City").
	for i, g := range q.GroupBy {
		out.Schema[i].Name = g.String()
	}
	if len(q.Having) > 0 {
		var err error
		if out, err = applyHaving(out, q.Having); err != nil {
			return storage.Relation{}, err
		}
	}
	return orderLimit(out, b)
}

// project applies the SELECT list: aggregation with GROUP BY, or plain
// projection, then ORDER BY and LIMIT.
func project(rel storage.Relation, b *core.BoundQuery) (storage.Relation, error) {
	q := b.Query
	if q.HasAggregates() {
		groupIdx, aggs, err := aggregatePlan(rel.Schema, b)
		if err != nil {
			return storage.Relation{}, err
		}
		return finishAggregate(storage.Aggregate(rel, groupIdx, aggs), b)
	}
	if len(q.Having) > 0 {
		return storage.Relation{}, fmt.Errorf("HAVING requires aggregation")
	}
	var out storage.Relation
	star := false
	for _, item := range q.Select {
		if item.Star {
			star = true
			break
		}
	}
	if star {
		// SELECT * output order follows the FROM clause, not the join
		// order the optimizer happened to choose.
		var starIdx []int
		for _, r := range b.Rels {
			prefix := strings.ToLower(r.Alias()) + "."
			for i, c := range rel.Schema {
				if strings.HasPrefix(strings.ToLower(c.Name), prefix) {
					starIdx = append(starIdx, i)
				}
			}
		}
		out = rel.Project(starIdx)
	} else {
		var idx []int
		for _, item := range q.Select {
			i, err := resolveQualified(rel.Schema, b, item.Col)
			if err != nil {
				return storage.Relation{}, err
			}
			idx = append(idx, i)
		}
		out = rel.Project(idx)
		for i, item := range q.Select {
			if item.Alias != "" {
				out.Schema[i].Name = item.Alias
			}
		}
	}
	if q.Distinct {
		out = out.Distinct()
	}
	return orderLimit(out, b)
}

// orderLimit applies ORDER BY, resolved against the output columns, and
// LIMIT.
func orderLimit(out storage.Relation, b *core.BoundQuery) (storage.Relation, error) {
	q := b.Query
	if len(q.OrderBy) > 0 {
		var cols []int
		var desc []bool
		for _, o := range q.OrderBy {
			idx := out.Schema.IndexOf(o.Col.Column)
			if idx < 0 {
				if i, err := resolveQualified(out.Schema, b, o.Col); err == nil {
					idx = i
				} else {
					return storage.Relation{}, fmt.Errorf("ORDER BY column %s not in output", o.Col)
				}
			}
			cols = append(cols, idx)
			desc = append(desc, o.Desc)
		}
		out = out.OrderBy(cols, desc)
	}
	if q.Limit >= 0 {
		out = out.Limit(q.Limit)
	}
	return out, nil
}

// applyHaving filters aggregated groups by the HAVING conjuncts, matching
// each condition to an output column by alias, SELECT-list text, or plain
// column name.
func applyHaving(rel storage.Relation, conds []sqlparse.HavingCond) (storage.Relation, error) {
	type check struct {
		col int
		op  sqlparse.CompareOp
		val value.Value
	}
	var checks []check
	for _, h := range conds {
		idx := havingColumn(rel.Schema, h.Item)
		if idx < 0 {
			return storage.Relation{}, fmt.Errorf("HAVING column %s not in output", h.Item)
		}
		checks = append(checks, check{col: idx, op: h.Op, val: h.Val})
	}
	return rel.Select(func(row value.Row) bool {
		for _, c := range checks {
			if !evalCompare(row[c.col], c.op, c.val) {
				return false
			}
		}
		return true
	}), nil
}

// havingColumn locates the output column a HAVING item refers to.
func havingColumn(schema value.Schema, item sqlparse.SelectItem) int {
	if idx := schema.IndexOf(item.String()); idx >= 0 {
		return idx
	}
	if item.Agg == sqlparse.AggNone {
		// A plain column may appear qualified in the output.
		if idx := schema.IndexOf(item.Col.Column); idx >= 0 {
			return idx
		}
		suffix := "." + strings.ToLower(item.Col.Column)
		for i, c := range schema {
			if strings.HasSuffix(strings.ToLower(c.Name), suffix) {
				return i
			}
		}
	}
	return -1
}
