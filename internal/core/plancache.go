// Parameterized plan-template cache, keyed by the SQL's token skeleton
// (sqlparse.Scan). Statements of one skeleton differ only in literals, which
// move the boxes, not the optimal join order or access paths, so one entry
// per skeleton holds the parsed template, the bound shape and the DP's plan
// steps, and a hit skips parse, name resolution, the per-relation coverage
// rewrites and the dynamic program.
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
// Staleness is handled at lookup: a plan snapshots the per-table coverage
// epochs and the statistics version at compile time, and a lookup empties
// the plan slot when either moved (new coverage or estimates can flip the
// winning plan). The template and shape stay: no store state moves them.
package core

import (
	"container/list"
	"sync"

	"payless/internal/obs"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
)

// DefaultPlanCacheSize is the LRU capacity used when a positive size is not
// configured.
const DefaultPlanCacheSize = 1024

// tableEpoch snapshots one market table's coverage epoch at compile time.
type tableEpoch struct {
	table string
	epoch uint64
}

// CachedPlan is a statement's cached plan: an optimized plan without its
// bound query, plus the invalidation snapshot it was compiled under. It is
// immutable, so concurrent hits share it.
type CachedPlan struct {
	// plan is the template every instance copies: Bound nil, Planner
	// PlannerCached, no search counters or timing. Its steps are the
	// optimizer's own, shared read-only by every instance, and so is its
	// line: a skeleton fixes how every alias is spelled.
	plan *Plan
	// epochs and statsVersion are the invalidation snapshot.
	epochs       []tableEpoch
	statsVersion uint64
}

// stale reports whether the plan's invalidation snapshot has moved.
func (cp *CachedPlan) stale(epochOf func(table string) uint64, statsVersion uint64) bool {
	if cp.statsVersion != statsVersion {
		return true
	}
	for _, e := range cp.epochs {
		if epochOf(e.table) != e.epoch {
			return true
		}
	}
	return false
}

// Instantiate rebinds the cached plan onto a freshly bound instance of its
// statement, whose Shape bound every instance alike. It returns ok=false —
// caller falls back to the optimizer — when a coverage-dependent access
// choice no longer holds for the new literals.
func (cp *CachedPlan) Instantiate(b *BoundQuery, store *semstore.Store, opts *Options) (*Plan, bool) {
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

// Statement is a cache entry: what every statement of one skeleton
// compiles to. Template and Shape are immutable, so concurrent hits share
// them; the plan slot belongs to the cache.
type Statement struct {
	// Template patches a statement's literals into the parsed AST.
	Template *sqlparse.Template
	// Shape binds the patched AST.
	Shape *Shape
	// skel is the key Put stored the statement under.
	skel string
	// plan is the statement's live plan, nil before one is cached and after
	// it went stale. The owning cache's mu guards it.
	plan *CachedPlan
}

// PlanCache is a bounded LRU of statements keyed by skeleton, each with its
// plan slot. Safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	ll      list.List // of *Statement, most recently used first
	entries map[string]*list.Element
	// metrics counts hits, misses, invalidations and evictions; the cache
	// keeps no counters of its own.
	metrics *obs.Metrics
}

// NewPlanCache returns an empty cache holding at most capacity statements
// (capacity <= 0 means DefaultPlanCacheSize) that counts its activity in m,
// which may be nil.
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

// Plan returns st's live plan, or nil, and counts the lookup as a hit or a
// miss. A plan whose invalidation snapshot moved (epochOf and statsVersion
// disagree with compile time) empties the slot, keeps the statement and
// counts an invalidation plus a miss.
func (c *PlanCache) Plan(st *Statement, epochOf func(table string) uint64, statsVersion uint64) *CachedPlan {
	c.mu.Lock()
	cp := st.plan
	stale := cp != nil && cp.stale(epochOf, statsVersion)
	if stale {
		st.plan, cp = nil, nil
	}
	c.mu.Unlock()
	c.metrics.ObservePlanCacheLookup(cp != nil, stale)
	return cp
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
	dropped := evicted != nil && evicted.plan != nil
	c.mu.Unlock()
	if dropped {
		c.metrics.ObservePlanCacheEviction()
	}
	return st
}

// SetPlan caches a freshly optimized plan in st's slot, replacing any plan
// there. epochOf reports the current coverage epoch of a market table (the
// caller snapshots it BEFORE executing the plan, so the plan's own
// purchases invalidate it — a cached plan must describe the store state it
// was costed against). statsVersion is the statistics mutation counter at
// the same instant. p itself is not modified.
func (c *PlanCache) SetPlan(st *Statement, p *Plan, epochOf func(table string) uint64, statsVersion uint64) {
	cp := &CachedPlan{
		plan:         &Plan{Steps: p.Steps, EstTrans: p.EstTrans, EstRows: p.EstRows, Planner: PlannerCached, line: p.String()},
		statsVersion: statsVersion,
	}
	seen := make(map[string]bool)
	for _, rel := range p.Bound.Rels {
		if rel.Table.Local || seen[rel.Table.Name] {
			continue
		}
		seen[rel.Table.Name] = true
		cp.epochs = append(cp.epochs, tableEpoch{table: rel.Table.Name, epoch: epochOf(rel.Table.Name)})
	}
	c.mu.Lock()
	st.plan = cp
	c.mu.Unlock()
}
