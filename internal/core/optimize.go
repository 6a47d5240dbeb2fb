package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"

	"payless/internal/catalog"
	"payless/internal/obs"
	"payless/internal/region"
	"payless/internal/rewrite"
	"payless/internal/semstore"
	"payless/internal/stats"
)

// invalidCost marks an access path that cannot be used (e.g. a plain scan of
// a table whose bound attribute has no value).
const invalidCost = math.MaxInt64 / 4

// Optimizer derives minimum-price left-deep plans (Algorithm 2).
type Optimizer struct {
	Catalog *catalog.Catalog
	// Store is the semantic store. Required.
	Store *semstore.Store
	// Stats estimates row counts per (table, box). Required.
	Stats   stats.Estimator
	Options Options
	// Trace, when non-nil, receives the optimize span and the planning-time
	// store lookups.
	Trace *obs.Trace
}

// relInfo caches per-relation facts the DP consults repeatedly.
type relInfo struct {
	estRows float64
	// remBoxes, remTrans and remRows total the remainder plans of the
	// relation's access boxes.
	remBoxes   int
	remTrans   int64
	remRows    float64
	plainCost  int64
	plainValid bool
	zeroPrice  bool
	// unbound is the relation's UnboundAttrs.
	unbound []string
}

type optRun struct {
	o        *Optimizer
	b        *BoundQuery
	info     []relInfo
	counters Counters
}

// Optimize derives the best plan for the bound query.
func (o *Optimizer) Optimize(b *BoundQuery) (*Plan, error) {
	start := time.Now()
	endSpan := o.Trace.StartSpan("optimize")
	run := &optRun{o: o, b: b, info: make([]relInfo, len(b.Rels))}
	for i := range b.Rels {
		run.prepRel(i)
	}
	var plan *Plan
	var err error
	if o.Options.DisableTheorems {
		// The bushy "Disable All" search of the Fig. 14 ablation.
		plan, err = run.searchBushy()
	} else {
		plan, err = run.searchLeftDeep()
	}
	if err != nil {
		endSpan(err)
		return nil, err
	}
	plan.Bound = b
	plan.Planner = PlannerDP
	plan.Counters = run.counters
	plan.Optimized = time.Since(start)
	endSpan(nil)
	return plan, nil
}

// prepRel computes the per-relation access facts: row estimate, semantic
// remainder plan, plain-scan cost and zero-price status.
func (r *optRun) prepRel(i int) {
	rel := r.b.Rels[i]
	info := &r.info[i]
	opts := &r.o.Options
	info.unbound = rel.UnboundAttrs()
	if rel.Table.Local {
		info.zeroPrice = true
		info.plainValid = true
		info.plainCost = 0
		info.estRows = r.localRows(rel)
		return
	}

	boxes := rel.AccessBoxes()
	for _, ab := range boxes {
		info.estRows += r.o.Stats.Estimate(rel.Table.Name, ab)
	}
	t := opts.TuplesPer(rel.Table.Dataset)

	if opts.DisableSQR {
		info.plainValid = len(info.unbound) == 0
		if info.plainValid {
			// One call per access box; transactions are billed per call, so
			// the ceil applies per box.
			var cost int64
			for _, ab := range boxes {
				cost += r.price(r.o.Stats.Estimate(rel.Table.Name, ab), t, 1)
			}
			info.plainCost = cost
			if opts.CostModel == CostCalls {
				info.plainCost = int64(len(boxes))
			}
			info.zeroPrice = len(boxes) == 0
		} else {
			info.plainCost = invalidCost
		}
		return
	}

	// SemanticRewrite(Ci, V, M) — Algorithm 2, line 4 — applied to each
	// access box; IN predicates decompose a relation into several boxes.
	cfg := RewriteConfig(rel.Table, opts)
	for _, ab := range boxes {
		pl := Remainder(r.o.Store, r.o.Stats, rel.Table.Name, ab, cfg, opts.Since, r.o.Trace)
		info.remBoxes += len(pl.Boxes)
		info.remTrans += pl.Transactions
		info.remRows += pl.EstRows
		r.counters.BoxesEnumerated += pl.Stats.Enumerated
		r.counters.BoxesKept += pl.Stats.Kept
	}
	fullyCovered := info.remBoxes == 0
	info.plainValid = len(info.unbound) == 0 || fullyCovered
	if !info.plainValid {
		info.plainCost = invalidCost
	} else if opts.CostModel == CostCalls {
		info.plainCost = int64(info.remBoxes)
	} else {
		info.plainCost = info.remTrans
	}
	// Theorem 2 / Algorithm 2 line 5: relations whose required tuples are
	// already in the semantic store become zero-price and join first.
	info.zeroPrice = fullyCovered
}

// localRows returns the actual cardinality of a local table when available.
func (r *optRun) localRows(rel *Rel) float64 {
	if tbl, ok := r.o.Store.DB().Lookup(rel.Table.Name); ok {
		return float64(tbl.Len())
	}
	if rel.Table.Cardinality > 0 {
		return float64(rel.Table.Cardinality)
	}
	return 1
}

// price converts a row estimate into the configured cost unit. calls is the
// number of RESTful calls the access makes (used by the CostCalls model).
func (r *optRun) price(rows float64, t int, calls int64) int64 {
	if r.o.Options.CostModel == CostCalls {
		return calls
	}
	return rewrite.Price(rows, t)
}

// Remainder is SemanticRewrite(Ci, V, M) of §4.2 for one access box: the
// store's coverage of box, then nothing to buy when one stored box contains
// it (the fast path), else Algorithm 1 over the covered boxes. It is the one
// routine behind both runs of the rewrite: the optimizer prices its result
// (Algorithm 2, line 4) and the engine buys it at fetch time. cfg comes
// from RewriteConfig, built once per relation by the caller.
func Remainder(store *semstore.Store, est stats.Estimator, table string, box region.Box, cfg rewrite.Config, since time.Time, trace *obs.Trace) rewrite.Plan {
	covered, st := store.Coverage(table, box, since)
	trace.AddStoreLookup(st.Micros, st.Pruned, st.FastPath)
	if st.FastPath {
		return rewrite.Plan{}
	}
	return rewrite.Remainders(box, covered, cfg, func(b region.Box) float64 { return est.Estimate(table, b) })
}

// RewriteConfig builds the Algorithm 1 configuration for a table under the
// given options.
func RewriteConfig(t *catalog.Table, opts *Options) rewrite.Config {
	return rewrite.Config{
		TuplesPerTransaction: opts.TuplesPer(t.Dataset),
		Full:                 t.FullBox(),
		DimKinds:             dimKinds(t),
		DisablePruning:       opts.DisableBoxPruning,
	}
}

// dimKinds maps a table's queryable attributes to rewrite dimension kinds.
func dimKinds(t *catalog.Table) []rewrite.DimKind {
	out := make([]rewrite.DimKind, 0, t.NumDims())
	for _, a := range t.Attrs {
		if a.Binding == catalog.Output {
			continue
		}
		kind := rewrite.Numeric
		if a.Class == catalog.CategoricalAttr {
			kind = rewrite.Categorical
		}
		out = append(out, kind)
	}
	return out
}

// distinctBase estimates the number of distinct values of rel's attribute
// within its predicate box.
func (r *optRun) distinctBase(relIdx int, attr string) float64 {
	rel := r.b.Rels[relIdx]
	w := r.attrWidth(rel, attr)
	rows := r.info[relIdx].estRows
	if rows < 1 {
		rows = 1
	}
	return math.Min(w, rows)
}

// attrWidth returns the width of the attribute's extent within the
// relation's box (its domain width when unconstrained), or 0 when the
// attribute is not queryable.
func (r *optRun) attrWidth(rel *Rel, attr string) float64 {
	switch i, a := rel.Table.Dim(attr); {
	case i < 0:
		return 0
	case i < rel.Box.D():
		return float64(rel.Box.Dims[i].Width())
	default:
		return float64(a.DomainWidth())
	}
}

// joinSelectivity estimates the selectivity of applying the given join
// edges between a prefix and a relation: Π 1/max(dL, dR).
func (r *optRun) joinSelectivity(edges []int) float64 {
	sel := 1.0
	for _, e := range edges {
		j := r.b.Joins[e]
		dl := r.distinctBase(j.L, j.LAttr)
		dr := r.distinctBase(j.R, j.RAttr)
		d := math.Max(dl, dr)
		if d < 1 {
			d = 1
		}
		sel /= d
	}
	return sel
}

// edgesBetween returns the join edges connecting rel i to any relation in
// the set (a bitmask over all relations plus the implicit zero-price set).
func (r *optRun) edgesBetween(i int, inSet func(int) bool) []int {
	var out []int
	for e, j := range r.b.Joins {
		if j.L == i && inSet(j.R) {
			out = append(out, e)
		}
		if j.R == i && inSet(j.L) {
			out = append(out, e)
		}
	}
	return out
}

// bindCost estimates accessing rel i by binding attribute attr with nb
// distinct values. Returns the cost and the per-access validity.
func (r *optRun) bindCost(i int, attr string, nb float64) (int64, bool) {
	rel := r.b.Rels[i]
	info := &r.info[i]
	a, ok := rel.Table.Attr(attr)
	if !ok || a.Binding == catalog.Output {
		return invalidCost, false
	}
	// Every bound attribute must be satisfied by a predicate or by being
	// the bind attribute itself.
	for _, ba := range info.unbound {
		if !strings.EqualFold(ba, attr) {
			return invalidCost, false
		}
	}
	w := r.attrWidth(rel, attr)
	if w <= 0 {
		return invalidCost, false
	}
	if nb < 1 {
		nb = 1
	}
	if nb > w {
		nb = w
	}
	// Rows still missing from the semantic store.
	remRows := info.estRows
	if !r.o.Options.DisableSQR {
		remRows = info.remRows
	}
	perBind := remRows / w
	t := r.o.Options.TuplesPer(rel.Table.Dataset)
	return int64(nb) * r.price(perBind, t, 1), true
}

// dpEntry is the best plan found for one relation subset.
type dpEntry struct {
	valid bool
	cost  int64
	rows  float64
	steps []Step
}

// searchLeftDeep runs Algorithm 2: zero-price relations first (Thm 2),
// left-deep DP over the priced relations (Thm 1), disconnected partitions
// combined by cartesian product (Thm 3).
func (r *optRun) searchLeftDeep() (*Plan, error) {
	var local, market []int
	for i := range r.b.Rels {
		if r.info[i].zeroPrice {
			local = append(local, i)
		} else {
			market = append(market, i)
		}
	}
	localSteps, localRows := r.localPrefix(local)

	n := len(market)
	if n > 20 {
		return nil, fmt.Errorf("too many priced relations (%d)", n)
	}
	if n == 0 {
		return &Plan{Steps: localSteps, EstRows: localRows}, nil
	}
	pos := make(map[int]int, n)
	for p, relIdx := range market {
		pos[relIdx] = p
	}
	isLocal := make(map[int]bool, len(local))
	for _, l := range local {
		isLocal[l] = true
	}

	dp := make([]dpEntry, 1<<n)
	dp[0] = dpEntry{valid: true, rows: localRows}

	inPrefix := func(mask int) func(int) bool {
		return func(rel int) bool {
			if isLocal[rel] {
				return true
			}
			p, ok := pos[rel]
			return ok && mask&(1<<p) != 0
		}
	}

	for mask := 1; mask < 1<<n; mask++ {
		// Theorem 3: disconnected partitions.
		if groups := r.components(mask, market, pos, local); len(groups) > 1 {
			r.counters.PlansEvaluated++
			entry := dpEntry{valid: true, rows: 1, cost: 0}
			entry.rows = localRows
			if localRows <= 0 {
				entry.rows = 1
			}
			ok := true
			for _, g := range groups {
				sub := dp[g]
				if !sub.valid {
					ok = false
					break
				}
				entry.cost += sub.cost
				// Cartesian combination of component cardinalities; avoid
				// double-counting the shared local prefix.
				if localRows > 0 {
					entry.rows *= sub.rows / localRows
				} else {
					entry.rows *= sub.rows
				}
				entry.steps = append(entry.steps, sub.steps...)
			}
			if ok {
				dp[mask] = entry
				continue
			}
		}
		best := dpEntry{}
		for p := 0; p < n; p++ {
			if mask&(1<<p) == 0 {
				continue
			}
			prev := dp[mask&^(1<<p)]
			if !prev.valid {
				continue
			}
			i := market[p]
			edges := r.edgesBetween(i, inPrefix(mask&^(1<<p)))
			cands := r.accessCandidates(i, prev.rows, edges)
			for _, c := range cands {
				r.counters.PlansEvaluated++
				total := prev.cost + c.cost
				if best.valid && total >= best.cost {
					continue
				}
				rows := prev.rows * r.info[i].estRows * r.joinSelectivity(edges)
				if rows < 0 {
					rows = 0
				}
				step := Step{Rel: i, Kind: c.kind, BindJoin: c.bindJoin, Joins: edges, EstTrans: c.cost, EstRows: r.info[i].estRows}
				steps := make([]Step, len(prev.steps), len(prev.steps)+1)
				copy(steps, prev.steps)
				best = dpEntry{valid: true, cost: total, rows: rows, steps: append(steps, step)}
			}
		}
		dp[mask] = best
	}
	final := dp[1<<n-1]
	if !final.valid {
		return nil, fmt.Errorf("no valid plan: a bound attribute cannot be satisfied")
	}
	return &Plan{
		Steps:    append(localSteps, final.steps...),
		EstTrans: final.cost,
		EstRows:  final.rows,
	}, nil
}

// accessCandidate is one way to fetch relation i given a prefix.
type accessCandidate struct {
	kind     AccessKind
	bindJoin int
	cost     int64
}

// accessCandidates enumerates the access paths for relation i: a plain
// remainder scan and one bind join per connecting edge.
func (r *optRun) accessCandidates(i int, prefixRows float64, edges []int) []accessCandidate {
	var out []accessCandidate
	info := &r.info[i]
	if info.plainValid {
		out = append(out, accessCandidate{kind: MarketScan, bindJoin: -1, cost: info.plainCost})
	}
	for _, e := range edges {
		myAttr, other, otherAttr := r.b.Joins[e].Toward(i)
		nb := math.Min(r.distinctBase(other, otherAttr), math.Max(prefixRows, 1))
		cost, ok := r.bindCost(i, myAttr, nb)
		if !ok {
			continue
		}
		out = append(out, accessCandidate{kind: MarketBind, bindJoin: e, cost: cost})
	}
	return out
}

// localPrefix builds the steps for the zero-price relations (Theorem 2) and
// estimates their joined cardinality.
func (r *optRun) localPrefix(local []int) ([]Step, float64) {
	var steps []Step
	rows := 1.0
	placed := make(map[int]bool)
	for _, i := range local {
		edges := r.edgesBetween(i, func(rel int) bool { return placed[rel] })
		steps = append(steps, Step{Rel: i, Kind: LocalScan, BindJoin: -1, Joins: edges, EstRows: r.info[i].estRows})
		rows *= r.info[i].estRows * r.joinSelectivity(edges)
		placed[i] = true
	}
	if len(local) == 0 {
		return nil, 1
	}
	if rows < 0 {
		rows = 0
	}
	return steps, rows
}

// components partitions the priced relations of mask into join-connected
// groups (connections may pass through zero-price relations). It returns
// the group masks, or a single-element slice when connected.
func (r *optRun) components(mask int, market []int, pos map[int]int, local []int) []int {
	// Union-find over all relations.
	parent := make([]int, len(r.b.Rels))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	active := make([]bool, len(r.b.Rels))
	for _, l := range local {
		active[l] = true
	}
	for p, relIdx := range market {
		if mask&(1<<p) != 0 {
			active[relIdx] = true
		}
	}
	for _, j := range r.b.Joins {
		if active[j.L] && active[j.R] {
			union(j.L, j.R)
		}
	}
	groups := make(map[int]int) // root -> group mask
	for p, relIdx := range market {
		if mask&(1<<p) == 0 {
			continue
		}
		groups[find(relIdx)] |= 1 << p
	}
	out := make([]int, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	return out
}

// searchBushy is the "Disable All" search of Fig. 14: no zero-price-first,
// no partition shortcut, and bushy trees — every subset split is a
// candidate. Plans remain executable because the engine joins each new
// relation against the whole prefix.
func (r *optRun) searchBushy() (*Plan, error) {
	n := len(r.b.Rels)
	if n > 14 {
		return nil, fmt.Errorf("too many relations for bushy enumeration (%d)", n)
	}
	dp := make([]dpEntry, 1<<n)
	inMask := func(mask int) func(int) bool {
		return func(rel int) bool { return mask&(1<<rel) != 0 }
	}
	// Base: single relations by plain scan.
	for i := 0; i < n; i++ {
		r.counters.PlansEvaluated++
		info := &r.info[i]
		var cost int64 = invalidCost
		valid := false
		kind := MarketScan
		if r.b.Rels[i].Table.Local {
			cost, valid, kind = 0, true, LocalScan
		} else if info.plainValid {
			cost, valid = info.plainCost, true
		}
		dp[1<<i] = dpEntry{
			valid: valid,
			cost:  cost,
			rows:  info.estRows,
			steps: []Step{{Rel: i, Kind: kind, BindJoin: -1, EstTrans: cost, EstRows: info.estRows}},
		}
	}
	for mask := 1; mask < 1<<n; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		best := dpEntry{}
		for l := (mask - 1) & mask; l > 0; l = (l - 1) & mask {
			rest := mask &^ l
			left, right := dp[l], dp[rest]
			if !left.valid || !right.valid {
				continue
			}
			// Candidate 1: local join of the two subtrees.
			r.counters.PlansEvaluated++
			crossEdges := 0
			sel := 1.0
			for e, j := range r.b.Joins {
				if (l&(1<<j.L) != 0 && rest&(1<<j.R) != 0) || (l&(1<<j.R) != 0 && rest&(1<<j.L) != 0) {
					crossEdges++
					sel *= r.joinSelectivity([]int{e})
				}
			}
			rows := left.rows * right.rows * sel
			cost := left.cost + right.cost
			if !best.valid || cost < best.cost {
				steps := make([]Step, 0, len(left.steps)+len(right.steps))
				steps = append(steps, left.steps...)
				steps = append(steps, right.steps...)
				r.attachJoins(steps, len(left.steps))
				best = dpEntry{valid: true, cost: cost, rows: rows, steps: steps}
			}
			// Candidate 2: bind join when the right side is one relation.
			if bits.OnesCount(uint(rest)) == 1 {
				i := bits.TrailingZeros(uint(rest))
				edges := r.edgesBetween(i, inMask(l))
				for _, c := range r.accessCandidates(i, left.rows, edges) {
					if c.kind != MarketBind {
						continue
					}
					r.counters.PlansEvaluated++
					total := left.cost + c.cost
					if best.valid && total >= best.cost {
						continue
					}
					rows := left.rows * r.info[i].estRows * r.joinSelectivity(edges)
					steps := make([]Step, len(left.steps), len(left.steps)+1)
					copy(steps, left.steps)
					steps = append(steps, Step{Rel: i, Kind: MarketBind, BindJoin: c.bindJoin, Joins: edges, EstTrans: c.cost, EstRows: r.info[i].estRows})
					best = dpEntry{valid: true, cost: total, rows: rows, steps: steps}
				}
			}
		}
		dp[mask] = best
	}
	final := dp[1<<n-1]
	if !final.valid {
		return nil, fmt.Errorf("no valid plan: a bound attribute cannot be satisfied")
	}
	return &Plan{Steps: final.steps, EstTrans: final.cost, EstRows: final.rows}, nil
}

// attachJoins recomputes, for a linearised step list, the join edges each
// step applies against its prefix (used after concatenating subtrees).
func (r *optRun) attachJoins(steps []Step, from int) {
	placed := make(map[int]bool)
	for k := range steps {
		if k >= from {
			steps[k].Joins = r.edgesBetween(steps[k].Rel, func(rel int) bool { return placed[rel] })
		}
		placed[steps[k].Rel] = true
	}
}
