// Parameterized plan-template cache, keyed by the SQL's token skeleton
// (sqlparse.Scan). Statements of one skeleton differ only in literals, which
// move the boxes, not the optimal join order or access paths, so one entry
// per skeleton holds the parsed template, the bound shape and the DP's plan
// steps, and a hit skips parse, name resolution, the per-relation coverage
// rewrites and the dynamic program. A prepared statement owns one such
// Statement outside the cache; its plan slot serves arguments of any kind
// (Int or Float alike), as a skeleton's serves any values, because a literal
// of the wrong type for its column fails to bind.
//
// Plan reuse is sound because a plan carries no remainder boxes: every
// MarketScan derives the remainder of its access boxes against the live
// semantic store at fetch time, and every MarketBind re-checks coverage per
// binding value. The cached steps pin only structure, with two
// literal-dependent exceptions re-verified per instance:
//
//   - a LocalScan over a market table was chosen because the warm query's
//     boxes were fully covered (Theorem 2); the fresh literals' boxes must
//     be covered too, or the cached plan is refused;
//   - a MarketScan over a relation with an unsatisfied bound attribute was
//     only valid because it was fully covered; same re-check.
//
// Staleness is handled at lookup: a plan snapshots the statistics version of
// each market table it reads at compile time, and a lookup empties the plan
// slot once any of them moved (new estimates can flip the winning plan). A
// purchase feeds its table's statistics, so buying a table moves its
// version; buying another table leaves the plan alone. The template and
// shape stay: no store state moves them.
package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"payless/internal/obs"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/stats"
)

// DefaultPlanCacheSize is the LRU capacity used when a positive size is not
// configured.
const DefaultPlanCacheSize = 1024

// CachedPlan is a statement's cached plan: an optimized plan without its
// bound query, plus the invalidation snapshot it was compiled under. It is
// immutable, so concurrent hits share it.
type CachedPlan struct {
	// plan is the template every instance copies: Bound nil, Planner
	// PlannerCached, no search counters or timing. Its steps are the
	// optimizer's own, shared read-only by every instance, and so is its
	// line: a skeleton fixes how every alias is spelled.
	plan *Plan
	// versions is the invalidation snapshot: the statistics version of each
	// market table the plan reads, once per relation.
	versions []stats.Version
}

// stale reports whether any of the plan's tables has moved its statistics.
func (cp *CachedPlan) stale() bool {
	for _, v := range cp.versions {
		if v.Moved() {
			return true
		}
	}
	return false
}

// Instantiate rebinds the cached plan onto a freshly bound instance of its
// statement, whose Shape bound every instance alike. It returns ok=false —
// caller falls back to the optimizer — when there is no plan (cp is nil) or
// a coverage-dependent access choice no longer holds for the new literals.
func (cp *CachedPlan) Instantiate(b *BoundQuery, store *semstore.Store, opts *Options) (*Plan, bool) {
	if cp == nil {
		return nil, false
	}
	covered := func(rel *Rel) bool {
		for _, ab := range rel.AccessBoxes() {
			if opts.DisableSQR || !store.Covered(rel.Table.Name, ab, opts.Since) {
				return false
			}
		}
		return true
	}
	for _, s := range cp.plan.Steps {
		rel := b.Rels[s.Rel]
		switch s.Kind {
		case LocalScan:
			// Zero-price access to a market table held only because the warm
			// query's boxes were fully covered; re-verify for these literals.
			// An empty access set (a predicate that can match nothing) is
			// trivially covered.
			if !rel.Table.Local && len(rel.AccessBoxes()) > 0 && !covered(rel) {
				return nil, false
			}
		case MarketScan:
			// A plain scan is invalid while a bound attribute lacks a value —
			// unless the store covers the boxes so no call is ever issued.
			if len(rel.UnboundAttrs()) > 0 && len(rel.AccessBoxes()) > 0 && !covered(rel) {
				return nil, false
			}
		}
	}
	p := *cp.plan
	p.Bound = b
	return &p, true
}

// Statement is what every statement of one skeleton compiles to, or a
// prepared statement: a parsed template, its bound shape and a plan slot.
// Template and Shape are immutable, so concurrent instances share them; the
// slot is swapped atomically, and planned by one compiler at a time (see
// Replan).
type Statement struct {
	// Template patches a statement's literals into the parsed AST.
	Template *sqlparse.Template
	// Shape binds the patched AST.
	Shape *Shape
	// skel is the key Put stored the statement under.
	skel string
	// plan is the statement's live plan, nil before one is cached and after
	// it went stale.
	plan atomic.Pointer[CachedPlan]
	// planning is held by the compiler planning the slot after a miss.
	planning sync.Mutex
}

// Plan returns the statement's live plan, or nil, and counts the lookup in
// m (which may be nil) as a hit or a miss. A plan one of whose tables moved
// its statistics since compile time empties the slot and counts an
// invalidation plus a miss.
func (st *Statement) Plan(m *obs.Metrics) *CachedPlan {
	cp := st.plan.Load()
	stale := cp != nil && cp.stale()
	if stale {
		st.plan.CompareAndSwap(cp, nil)
		cp = nil
	}
	m.ObservePlanCacheLookup(cp != nil, stale)
	return cp
}

// Replan is a compile's way past a miss: it waits until no other compiler
// is planning the slot, then returns the slot's live plan — one a concurrent
// miss stored meanwhile, or nil — uncounted. The caller instantiates that
// plan, or optimizes and calls SetPlan, and then calls EndReplan to let the
// next compiler in, so concurrent misses run the optimizer once. Hits never
// wait here.
func (st *Statement) Replan() *CachedPlan {
	st.planning.Lock()
	cp := st.plan.Load()
	if cp != nil && cp.stale() {
		cp = nil
	}
	return cp
}

// EndReplan ends the Replan that the caller began.
func (st *Statement) EndReplan() { st.planning.Unlock() }

// SetPlan caches a freshly optimized plan in the statement's slot,
// replacing any plan there, under the current statistics versions in sv of
// the market tables it reads. The caller snapshots them BEFORE executing
// the plan, so the plan's own purchases invalidate it: a cached plan must
// describe the estimates it was costed against. p itself is not modified.
func (st *Statement) SetPlan(p *Plan, sv *stats.Store) {
	cp := &CachedPlan{
		plan:     &Plan{Steps: p.Steps, EstTrans: p.EstTrans, EstRows: p.EstRows, Planner: PlannerCached, line: p.String()},
		versions: make([]stats.Version, 0, len(p.Bound.Rels)),
	}
	for _, rel := range p.Bound.Rels {
		if !rel.Table.Local {
			cp.versions = append(cp.versions, sv.Version(rel.Table.Name))
		}
	}
	st.plan.Store(cp)
}

// PlanCache is a bounded LRU of statements keyed by skeleton. Safe for
// concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	ll      list.List // of *Statement, most recently used first
	entries map[string]*list.Element
	// metrics counts evictions; the cache keeps no counters of its own.
	metrics *obs.Metrics
}

// NewPlanCache returns an empty cache holding at most capacity statements
// (capacity <= 0 means DefaultPlanCacheSize) that counts its evictions in
// m, which may be nil.
func NewPlanCache(capacity int, m *obs.Metrics) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{cap: capacity, entries: make(map[string]*list.Element), metrics: m}
}

// Lookup returns the statement cached under a skeleton, or nil. It
// compares the whole skeleton, never a hash of it alone.
func (c *PlanCache) Lookup(skel []byte) *Statement {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(skel)]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*Statement)
	}
	return nil
}

// Put caches a new statement under its skeleton and returns the entry the
// skeleton now has: st, or the one a concurrent miss cached first, whose
// plan slot st's compilers then share. Caching st evicts the least recently
// used statement when over capacity; evicting one that holds a plan counts
// an eviction. Only a statement that parsed and bound belongs here.
func (c *PlanCache) Put(skel []byte, st *Statement) *Statement {
	c.mu.Lock()
	if el, ok := c.entries[string(skel)]; ok {
		c.ll.MoveToFront(el)
		st = el.Value.(*Statement)
		c.mu.Unlock()
		return st
	}
	st.skel = string(skel)
	c.entries[st.skel] = c.ll.PushFront(st)
	var evicted *Statement
	if c.ll.Len() > c.cap {
		evicted = c.ll.Remove(c.ll.Back()).(*Statement)
		delete(c.entries, evicted.skel)
	}
	c.mu.Unlock()
	if evicted != nil && evicted.plan.Load() != nil {
		c.metrics.ObservePlanCacheEviction()
	}
	return st
}
