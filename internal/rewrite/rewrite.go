// Package rewrite implements PayLess's semantic query rewriting (paper §4.2).
//
// Given a prospective RESTful call (a box q over a table's queryable space)
// and the boxes already stored in the semantic store, the rewriter computes
// the uncovered region V, decomposes it into disjoint elementary boxes, and
// finds a set of valid remainder queries covering V at minimum estimated
// price in data-market transactions.
//
// The generation step is the paper's Algorithm 1: bounding-box candidates
// are enumerated from the per-dimension separator sets of the elementary
// boxes, with two pruning rules — (1) only minimum bounding boxes survive,
// and (2) a box is dropped when its price is not below the summed price of
// the elementary boxes it contains. Remainder queries may deliberately
// overlap stored results when re-downloading a covered sliver is cheaper
// than an extra transaction (the paper's Rem2 example). Categorical
// dimensions span a single value or the whole domain (Fig. 8). The final
// selection is the greedy weighted set cover of Chvátal [22]; each
// elementary box is itself always a feasible candidate, so a cover exists.
package rewrite

import (
	"math"
	"slices"
	"sort"

	"payless/internal/region"
)

// DimKind classifies one box axis for candidate enumeration.
type DimKind uint8

const (
	// Numeric dimensions accept arbitrary ranges between separators.
	Numeric DimKind = iota
	// Categorical dimensions accept a single value or the whole domain.
	Categorical
)

// Config parameterises remainder generation for one table.
type Config struct {
	// TuplesPerTransaction is the dataset page size t.
	TuplesPerTransaction int
	// DimKinds gives the kind of each queryable dimension, parallel to the
	// box axes. Missing entries default to Numeric.
	DimKinds []DimKind
	// Full is the table's whole queryable space (used for the whole-domain
	// extent of categorical dimensions).
	Full region.Box
	// DisablePruning turns off pruning rules 1 and 2 (Fig. 15 ablation).
	DisablePruning bool
	// MaxEnumeration caps Algorithm 1's enumeration; beyond the cap the
	// rewriter falls back to elementary boxes only. Zero means the default.
	MaxEnumeration int
}

const defaultMaxEnumeration = 100000

// Stats counts Algorithm 1's work for the Fig. 15 experiment.
type Stats struct {
	// Elementary is the number of elementary boxes of V.
	Elementary int
	// Enumerated is the number of bounding boxes Algorithm 1 generated
	// before pruning.
	Enumerated int
	// Kept is the number surviving both pruning rules.
	Kept int
}

// Plan is the chosen set of remainder queries.
type Plan struct {
	// Boxes are the remainder queries to send, covering all of V.
	Boxes []region.Box
	// Transactions is the estimated total price of the remainder queries.
	Transactions int64
	// EstRows is the estimated number of rows the remainder queries retrieve.
	EstRows float64
	Stats   Stats
}

// Estimator returns the expected number of table rows inside a box. It must
// not retain the box: Algorithm 1 passes a scratch box it rewrites for the
// next candidate.
type Estimator func(region.Box) float64

// priceOf converts an estimated row count into transactions.
func priceOf(rows float64, t int) int64 {
	if rows <= 0 {
		return 0
	}
	return int64(math.Ceil(rows / float64(t)))
}

// candidate is one option for the set cover: usually a single bounding box,
// but a composite of several boxes when an elementary box with an invalid
// categorical span is decomposed per value.
type candidate struct {
	boxes  []region.Box
	rows   float64
	trans  int64
	covers []int
}

// Remainders computes the minimum-price set of valid remainder queries for
// the call box q given the stored boxes. An empty plan (no boxes) means q is
// fully covered and the call is free.
func Remainders(q region.Box, covered []region.Box, cfg Config, est Estimator) Plan {
	if cfg.TuplesPerTransaction <= 0 {
		cfg.TuplesPerTransaction = 100
	}
	if cfg.MaxEnumeration <= 0 {
		cfg.MaxEnumeration = defaultMaxEnumeration
	}
	elems := region.Subtract(q, covered)
	if len(elems) == 0 {
		return Plan{}
	}
	plan := Plan{Stats: Stats{Elementary: len(elems)}}

	// Fast path: nothing of q is covered — q itself retrieves exactly the
	// needed rows, and ceil is subadditive, so no decomposition beats it.
	if len(elems) == 1 && elems[0].Equal(q) {
		rows := est(q)
		plan.Boxes = []region.Box{q}
		plan.EstRows = rows
		plan.Transactions = priceOf(rows, cfg.TuplesPerTransaction)
		plan.Stats.Enumerated = 1
		plan.Stats.Kept = 1
		return plan
	}

	elemPrice := make([]int64, len(elems))
	elemRows := make([]float64, len(elems))
	for i, e := range elems {
		elemRows[i] = est(e)
		elemPrice[i] = priceOf(elemRows[i], cfg.TuplesPerTransaction)
	}

	cands := enumerate(q, elems, elemPrice, cfg, est, &plan.Stats)

	// Elementary boxes themselves are always feasible remainder queries
	// (straight decomposition, the paper's Rem1), guaranteeing a cover.
	// Elementary boxes whose categorical span is neither a single value nor
	// the whole domain are inexpressible as calls (Fig. 8); they become a
	// composite candidate of per-value boxes, or a whole-domain widening
	// when the span is too wide to split.
	for i, e := range elems {
		boxes := validize(e, cfg)
		var rows float64
		var trans int64
		if len(boxes) == 1 && boxes[0].Equal(e) {
			rows, trans = elemRows[i], elemPrice[i]
		} else {
			for _, b := range boxes {
				r := est(b)
				rows += r
				trans += priceOf(r, cfg.TuplesPerTransaction)
			}
		}
		cands = append(cands, candidate{boxes: boxes, rows: rows, trans: trans, covers: []int{i}})
	}

	chosen := bestCover(len(elems), cands)
	for _, c := range chosen {
		plan.Boxes = append(plan.Boxes, c.boxes...)
		plan.Transactions += c.trans
		plan.EstRows += c.rows
	}
	return plan
}

// maxCategoricalSplit caps the per-value decomposition of one elementary
// box; wider spans are widened to the whole domain instead.
const maxCategoricalSplit = 64

// validize rewrites an elementary box into a set of valid call boxes:
// categorical dimensions may only span one value or the whole domain.
func validize(e region.Box, cfg Config) []region.Box {
	out := []region.Box{e}
	for i := range e.Dims {
		kind := Numeric
		if i < len(cfg.DimKinds) {
			kind = cfg.DimKinds[i]
		}
		if kind != Categorical {
			continue
		}
		full := e.Dims[i]
		if i < cfg.Full.D() {
			full = cfg.Full.Dims[i]
		}
		var next []region.Box
		for _, b := range out {
			iv := b.Dims[i]
			if iv.Width() == 1 || iv.Equal(full) {
				next = append(next, b)
				continue
			}
			if iv.Width()*int64(len(out)) > maxCategoricalSplit {
				nb := b.Clone()
				nb.Dims[i] = full
				next = append(next, nb)
				continue
			}
			for v := iv.Lo; v < iv.Hi; v++ {
				nb := b.Clone()
				nb.Dims[i] = region.Point(v)
				next = append(next, nb)
			}
		}
		out = next
	}
	return out
}

// extentsOf returns Algorithm 1's per-dimension candidate extents, or false
// when some dimension has none or the enumeration would exceed the cap.
func extentsOf(q region.Box, elems []region.Box, cfg Config) ([][]region.Interval, bool) {
	d := q.D()
	seps := region.SeparatorSets(elems)
	extents := make([][]region.Interval, d)
	total := 1
	for i := 0; i < d; i++ {
		kind := Numeric
		if i < len(cfg.DimKinds) {
			kind = cfg.DimKinds[i]
		}
		var exts []region.Interval
		switch kind {
		case Categorical:
			// Single values present in some elementary box, plus the whole
			// domain (Fig. 8).
			seen := make(map[int64]struct{})
			for _, e := range elems {
				for v := e.Dims[i].Lo; v < e.Dims[i].Hi; v++ {
					seen[v] = struct{}{}
				}
			}
			vals := make([]int64, 0, len(seen))
			for v := range seen {
				vals = append(vals, v)
			}
			sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
			for _, v := range vals {
				exts = append(exts, region.Point(v))
			}
			full := q.Dims[i]
			if i < cfg.Full.D() {
				full = cfg.Full.Dims[i]
			}
			if full.Width() > 1 {
				exts = append(exts, full)
			}
		default:
			s := seps[i]
			for a := 0; a < len(s); a++ {
				for b := a + 1; b < len(s); b++ {
					exts = append(exts, region.Interval{Lo: s[a], Hi: s[b]})
				}
			}
		}
		if len(exts) == 0 {
			return nil, false
		}
		extents[i] = exts
		if total > cfg.MaxEnumeration/len(exts) {
			// Enumeration would exceed the cap; fall back to elementary
			// boxes only (the caller always appends them).
			return nil, false
		}
		total *= len(exts)
	}
	return extents, true
}

// enumerate runs Algorithm 1: candidate bounding boxes from separator sets,
// filtered by the two pruning rules unless disabled.
func enumerate(q region.Box, elems []region.Box, elemPrice []int64, cfg Config, est Estimator, stats *Stats) []candidate {
	extents, ok := extentsOf(q, elems, cfg)
	if !ok {
		return nil
	}
	d := q.D()
	var out []candidate
	// Every enumerated box is tested in these two scratch buffers; only a
	// kept candidate gets its own copies. covers never outgrows its capacity.
	b := region.Box{Dims: make([]region.Interval, d)}
	covers := make([]int, 0, len(elems))
	var rec func(i int)
	rec = func(i int) {
		if i == d {
			stats.Enumerated++
			if c, ok := buildCandidate(b, covers[:0], elems, elemPrice, cfg, est); ok {
				stats.Kept++
				out = append(out, c)
			}
			return
		}
		for _, e := range extents[i] {
			b.Dims[i] = e
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// buildCandidate applies the pruning rules to one enumerated box: the
// geometric rule 1 before the estimator is asked, the price rule 2 after. b
// and covers (empty, with room for every elementary box) are scratch: a kept
// candidate holds copies of them.
func buildCandidate(b region.Box, covers []int, elems []region.Box, elemPrice []int64, cfg Config, est Estimator) (candidate, bool) {
	var coveredSum int64
	for i, e := range elems {
		if b.Contains(e) {
			covers = append(covers, i)
			coveredSum += elemPrice[i]
		}
	}
	if len(covers) == 0 {
		return candidate{}, false
	}
	// Pruning rule 1: only minimum bounding boxes survive. Shrinking b to
	// the bounding box of the elementary boxes it contains must change
	// nothing; otherwise b retrieves redundant tuples for the same coverage.
	if !cfg.DisablePruning && !boundsExactly(b, elems, covers) {
		return candidate{}, false
	}
	rows := est(b)
	trans := priceOf(rows, cfg.TuplesPerTransaction)
	// Pruning rule 2: the box must be strictly cheaper than fetching its
	// elementary boxes individually.
	if !cfg.DisablePruning && trans >= coveredSum {
		return candidate{}, false
	}
	return candidate{boxes: []region.Box{b.Clone()}, rows: rows, trans: trans, covers: slices.Clone(covers)}, true
}

// boundsExactly reports whether b is the bounding box of the elementary
// boxes it covers: on every axis some covered box reaches each of b's edges.
func boundsExactly(b region.Box, elems []region.Box, covers []int) bool {
	for d, iv := range b.Dims {
		lo, hi := elems[covers[0]].Dims[d].Lo, elems[covers[0]].Dims[d].Hi
		for _, i := range covers[1:] {
			lo, hi = min(lo, elems[i].Dims[d].Lo), max(hi, elems[i].Dims[d].Hi)
		}
		if lo != iv.Lo || hi != iv.Hi {
			return false
		}
	}
	return true
}

// exactCoverLimit bounds the elementary-box count for which the optimal
// cover is computed exactly (bitmask DP over 2^n states); larger instances
// use the greedy approximation, as the paper does.
const exactCoverLimit = 14

// bestCover picks the remainder-query set covering all elementary boxes at
// minimum estimated price: exactly for small instances, greedily (Chvátal
// [22], the paper's choice) beyond exactCoverLimit.
func bestCover(nElems int, cands []candidate) []candidate {
	if nElems <= exactCoverLimit {
		if chosen, ok := exactCover(nElems, cands); ok {
			return chosen
		}
	}
	return setCover(nElems, cands)
}

// exactCover solves weighted set cover optimally by DP over covered-element
// bitmasks. Returns ok=false when the instance is degenerate (no feasible
// cover), which cannot happen with elementary singletons present.
func exactCover(nElems int, cands []candidate) ([]candidate, bool) {
	full := (1 << nElems) - 1
	const inf = math.MaxInt64 / 4
	cost := make([]int64, full+1)
	rows := make([]float64, full+1)
	choice := make([]int, full+1)
	parent := make([]int, full+1)
	for i := 1; i <= full; i++ {
		cost[i] = inf
		choice[i] = -1
		parent[i] = -1
	}
	masks := make([]int, len(cands))
	for ci, c := range cands {
		m := 0
		for _, e := range c.covers {
			m |= 1 << e
		}
		masks[ci] = m
	}
	for state := 0; state < full; state++ {
		if cost[state] == inf {
			continue
		}
		// Expand by every candidate that covers something new. Ties on
		// price break towards fewer retrieved rows (less redundant data).
		for ci, c := range cands {
			next := state | masks[ci]
			if next == state {
				continue
			}
			nc := cost[state] + c.trans
			nr := rows[state] + c.rows
			if nc < cost[next] || (nc == cost[next] && nr < rows[next]) {
				cost[next] = nc
				rows[next] = nr
				choice[next] = ci
				parent[next] = state
			}
		}
	}
	if cost[full] >= inf {
		return nil, false
	}
	// Reconstruct along the recorded parent pointers.
	var chosen []candidate
	state := full
	for state != 0 {
		ci := choice[state]
		prev := parent[state]
		if ci < 0 || prev < 0 || prev == state {
			return nil, false
		}
		chosen = append(chosen, cands[ci])
		state = prev
	}
	return chosen, true
}

// setCover runs the greedy weighted set cover of Chvátal [22]: repeatedly
// pick the candidate minimising cost per newly covered elementary box.
func setCover(nElems int, cands []candidate) []candidate {
	uncovered := make(map[int]struct{}, nElems)
	for i := 0; i < nElems; i++ {
		uncovered[i] = struct{}{}
	}
	var chosen []candidate
	for len(uncovered) > 0 {
		bestIdx := -1
		bestRatio := math.Inf(1)
		bestNew := 0
		for ci, c := range cands {
			newCount := 0
			for _, e := range c.covers {
				if _, ok := uncovered[e]; ok {
					newCount++
				}
			}
			if newCount == 0 {
				continue
			}
			ratio := float64(c.trans) / float64(newCount)
			if ratio < bestRatio || (ratio == bestRatio && newCount > bestNew) {
				bestRatio = ratio
				bestNew = newCount
				bestIdx = ci
			}
		}
		if bestIdx < 0 {
			// Unreachable when elementary singletons are present; guard
			// against malformed candidate sets anyway.
			break
		}
		c := cands[bestIdx]
		chosen = append(chosen, c)
		for _, e := range c.covers {
			delete(uncovered, e)
		}
	}
	return chosen
}
