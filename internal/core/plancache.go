// Parameterized plan-template cache. Queries that share a normalized shape
// (see normalize.go) share their optimal join order and access paths almost
// always — the literals move the boxes, not the structure — so the client
// caches the optimized plan's steps under the shape key and lays them over
// each freshly bound instance, skipping the per-relation coverage rewrites
// and the dynamic program entirely.
//
// What makes plan reuse sound here is that a plan carries no remainder
// boxes: every MarketScan derives the remainder of its access boxes against
// the live semantic store at fetch time, and every MarketBind re-checks
// coverage per binding value. The cached steps are the DP's steps as made,
// and they pin only structure — join order, access kinds, join edges — all
// of which are functions of the query shape, with two literal-dependent
// exceptions re-verified at instantiation time:
//
//   - a LocalScan over a market table was chosen because the warm query's
//     boxes were fully covered (Theorem 2); the fresh literals' boxes must
//     be covered too, or the cached plan is refused;
//   - a MarketScan over a relation with an unsatisfied bound attribute was
//     only valid because it was fully covered; same re-check.
//
// Staleness is handled at lookup: each entry snapshots the semantic store's
// per-table coverage epochs and the statistics version at compile time, and
// a lookup discards the entry when either moved — new coverage or new
// estimates can flip the winning plan, exactly the situations the
// invalidation regression tests pin.
//
// In front of the plans sits a statement cache keyed by the SQL's token
// skeleton (sqlparse.Scan). Its entries hold what no literal and no store
// state moves — the parsed template, the bound shape and the plan key — so
// a stale plan never drops one.
package core

import (
	"container/list"
	"slices"
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

// CachedPlan is one plan-cache entry: an optimized plan without its bound
// query, plus the invalidation snapshot it was compiled under.
type CachedPlan struct {
	key string
	// plan is the template every instance copies: Bound nil, Planner
	// PlannerCached, no search counters or timing. Its steps are the
	// optimizer's own, shared read-only by every instance.
	plan *Plan
	// numRels/numJoins guard against key collisions: an instantiation whose
	// bound arity differs is refused outright.
	numRels, numJoins int
	// epochs and statsVersion are the invalidation snapshot.
	epochs       []tableEpoch
	statsVersion uint64
	// line is the compiled plan's String, and aliases the relation aliases
	// it names. Normalize lowercases names, so an instance may spell them
	// differently; only one that spells them the same reuses the line.
	line    string
	aliases []string
}

// stale reports whether the entry's invalidation snapshot has moved.
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

// Instantiate rebinds the cached plan onto a freshly bound instance of the
// same shape. It returns ok=false — caller falls back to the optimizer —
// when the bound arity does not match or a coverage-dependent access choice
// no longer holds for the new literals.
func (cp *CachedPlan) Instantiate(b *BoundQuery, store *semstore.Store, opts *Options) (*Plan, bool) {
	if len(b.Rels) != cp.numRels || len(b.Joins) != cp.numJoins {
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
		if s.Rel < 0 || s.Rel >= len(b.Rels) {
			return nil, false
		}
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
		case MarketBind:
			if s.BindJoin < 0 || s.BindJoin >= len(b.Joins) {
				return nil, false
			}
		}
		for _, e := range s.Joins {
			if e < 0 || e >= len(b.Joins) {
				return nil, false
			}
		}
	}
	p := *cp.plan
	p.Bound = b
	if slices.EqualFunc(b.Rels, cp.aliases, func(rel *Rel, alias string) bool { return rel.Alias() == alias }) {
		p.line = cp.line
	}
	return &p, true
}

// Statement is a statement-cache entry: what every statement of one
// skeleton compiles to before its literals. It is immutable, so concurrent
// hits share it.
type Statement struct {
	// Template patches a statement's literals into the parsed AST.
	Template *sqlparse.Template
	// Shape binds the patched AST.
	Shape *Shape
	// Key is the plan-cache key: Normalize of the AST.
	Key string
}

// PlanCache is a bounded LRU of optimized plans keyed by normalized shape,
// and a bounded LRU of statements keyed by skeleton, each holding at most
// the capacity. Safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	plans   lru[*CachedPlan]
	stmts   lru[*Statement]
	metrics *obs.Metrics
}

// lru is a least-recently-used map; its owner holds the lock.
type lru[V any] struct {
	ll      list.List
	entries map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

// touch marks el most recently used and returns its value.
func (l *lru[V]) touch(el *list.Element) V {
	l.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val
}

// remove drops el.
func (l *lru[V]) remove(el *list.Element) {
	l.ll.Remove(el)
	delete(l.entries, el.Value.(*lruItem[V]).key)
}

// put sets key to v, evicting the least recently used entry when the map
// would exceed capacity; it reports whether it evicted one.
func (l *lru[V]) put(key string, v V, capacity int) bool {
	if el, ok := l.entries[key]; ok {
		el.Value.(*lruItem[V]).val = v
		l.ll.MoveToFront(el)
		return false
	}
	if l.entries == nil {
		l.entries = make(map[string]*list.Element)
	}
	l.entries[key] = l.ll.PushFront(&lruItem[V]{key: key, val: v})
	if l.ll.Len() <= capacity {
		return false
	}
	l.remove(l.ll.Back())
	return true
}

// NewPlanCache returns an empty cache holding at most capacity plans and
// capacity statements; capacity <= 0 means DefaultPlanCacheSize.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{cap: capacity}
}

// SetMetrics attaches the metrics sink that counts hits, misses,
// invalidations and evictions; the cache keeps no counters of its own. Call
// before the cache is shared across goroutines.
func (c *PlanCache) SetMetrics(m *obs.Metrics) { c.metrics = m }

// Get returns the live entry for the key, or nil on a miss. An entry whose
// invalidation snapshot moved (epochOf/statsVersion disagree with compile
// time) is discarded and counted as an invalidation plus a miss.
func (c *PlanCache) Get(key string, epochOf func(table string) uint64, statsVersion uint64) *CachedPlan {
	c.mu.Lock()
	el, ok := c.plans.entries[key]
	if !ok {
		c.mu.Unlock()
		c.metrics.ObservePlanCacheLookup(false, false)
		return nil
	}
	cp := c.plans.touch(el)
	if cp.stale(epochOf, statsVersion) {
		c.plans.remove(el)
		c.mu.Unlock()
		c.metrics.ObservePlanCacheLookup(false, true)
		return nil
	}
	c.mu.Unlock()
	c.metrics.ObservePlanCacheLookup(true, false)
	return cp
}

// Put caches a freshly optimized plan under key, replacing any entry there
// and evicting the least recently used one when over capacity. epochOf
// reports the current coverage epoch of a market table (the caller
// snapshots it BEFORE executing the plan, so the plan's own purchases
// invalidate the entry — a cached plan must describe the store state it was
// costed against). statsVersion is the statistics mutation counter at the
// same instant. p itself is not modified.
func (c *PlanCache) Put(key string, p *Plan, epochOf func(table string) uint64, statsVersion uint64) {
	cp := &CachedPlan{
		key:          key,
		plan:         &Plan{Steps: p.Steps, EstTrans: p.EstTrans, EstRows: p.EstRows, Planner: PlannerCached},
		numRels:      len(p.Bound.Rels),
		numJoins:     len(p.Bound.Joins),
		statsVersion: statsVersion,
		line:         p.String(),
		aliases:      make([]string, len(p.Bound.Rels)),
	}
	for i, rel := range p.Bound.Rels {
		cp.aliases[i] = rel.Alias()
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
	evicted := c.plans.put(key, cp, c.cap)
	c.mu.Unlock()
	if evicted {
		c.metrics.ObservePlanCacheEviction()
	}
}

// Statement returns the statement cached under a skeleton, or nil. A hit
// compares the whole skeleton, never a hash of it alone.
func (c *PlanCache) Statement(skel []byte) *Statement {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.stmts.entries[string(skel)]; ok {
		return c.stmts.touch(el)
	}
	return nil
}

// PutStatement caches st under its skeleton, evicting the least recently
// used statement when over capacity. Only a statement that parsed and bound
// belongs here.
func (c *PlanCache) PutStatement(skel []byte, st *Statement) {
	c.mu.Lock()
	c.stmts.put(string(skel), st, c.cap)
	c.mu.Unlock()
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans.ll.Len()
}
