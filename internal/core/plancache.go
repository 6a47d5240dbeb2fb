// Parameterized plan-template cache. Queries that share a normalized shape
// (see normalize.go) share their optimal join order and access paths almost
// always — the literals move the boxes, not the structure — so the client
// caches the *skeleton* of an optimized plan under the shape key and
// re-binds fresh literals into it, skipping the per-relation coverage
// rewrites and the dynamic program entirely.
//
// What makes skeleton reuse sound here is that the execution engine never
// trusts a plan's costed remainder: every MarketScan re-derives the
// remainder of its access boxes against the live semantic store at fetch
// time, and every MarketBind re-checks coverage per binding value. The
// skeleton therefore only pins structure — join order, access kinds, join
// edges — all of which are functions of the query shape, with two
// literal-dependent exceptions re-verified at instantiation time:
//
//   - a LocalScan over a market table was chosen because the warm query's
//     boxes were fully covered (Theorem 2); the fresh literals' boxes must
//     be covered too, or the skeleton is rejected;
//   - a MarketScan over a relation with an unsatisfied bound attribute was
//     only valid because it was fully covered; same re-check.
//
// Staleness is handled at lookup: each skeleton snapshots the semantic
// store's per-table coverage epochs and the statistics version at compile
// time, and a lookup discards the entry when either moved — new coverage or
// new estimates can flip the winning plan, exactly the situations the
// invalidation regression tests pin.
package core

import (
	"container/list"
	"sync"

	"payless/internal/catalog"
	"payless/internal/obs"
	"payless/internal/rewrite"
	"payless/internal/semstore"
)

// DefaultPlanCacheSize is the LRU capacity used when a positive size is not
// configured.
const DefaultPlanCacheSize = 1024

// SkeletonStep is one plan step with everything literal-dependent stripped:
// the costed remainder is gone (the engine recomputes it at fetch time) and
// the estimates are carried over as advisory values.
type SkeletonStep struct {
	Rel      int
	Kind     AccessKind
	BindJoin int
	Joins    []int
	EstTrans int64
	EstRows  float64
}

// tableEpoch snapshots one market table's coverage epoch at compile time.
type tableEpoch struct {
	table string
	epoch uint64
}

// PlanSkeleton is a cached plan template: the structure of an optimized
// plan, keyed by the normalized query shape, plus the invalidation
// snapshot it was compiled under.
type PlanSkeleton struct {
	// Key is the normalized shape the skeleton was compiled for.
	Key string
	// Planner names the strategy that produced the original plan.
	Planner string
	Steps   []SkeletonStep
	// EstTrans and EstRows are the warm query's estimates — advisory for
	// instances with different literals.
	EstTrans int64
	EstRows  float64
	// numRels/numJoins guard against key collisions: an instantiation whose
	// bound arity differs is rejected outright.
	numRels, numJoins int
	// epochs and statsVersion are the invalidation snapshot.
	epochs       []tableEpoch
	statsVersion uint64
}

// NewSkeleton strips a freshly optimized plan to its cacheable template.
// epochOf reports the current coverage epoch of a market table (the
// caller snapshots it BEFORE executing the plan, so the plan's own
// purchases invalidate the entry — a skeleton must describe the store state
// it was costed against). statsVersion is the statistics mutation counter
// at the same instant.
func NewSkeleton(key string, p *Plan, epochOf func(table string) uint64, statsVersion uint64) *PlanSkeleton {
	sk := &PlanSkeleton{
		Key:          key,
		Planner:      p.Planner,
		EstTrans:     p.EstTrans,
		EstRows:      p.EstRows,
		numRels:      len(p.Bound.Rels),
		numJoins:     len(p.Bound.Joins),
		statsVersion: statsVersion,
	}
	for _, s := range p.Steps {
		sk.Steps = append(sk.Steps, SkeletonStep{
			Rel:      s.Rel,
			Kind:     s.Kind,
			BindJoin: s.BindJoin,
			Joins:    append([]int(nil), s.Joins...),
			EstTrans: s.EstTrans,
			EstRows:  s.EstRows,
		})
	}
	seen := make(map[string]bool)
	for _, rel := range p.Bound.Rels {
		if rel.Table.Local || seen[rel.Table.Name] {
			continue
		}
		seen[rel.Table.Name] = true
		sk.epochs = append(sk.epochs, tableEpoch{table: rel.Table.Name, epoch: epochOf(rel.Table.Name)})
	}
	return sk
}

// stale reports whether the skeleton's invalidation snapshot has moved.
func (sk *PlanSkeleton) stale(epochOf func(table string) uint64, statsVersion uint64) bool {
	if sk.statsVersion != statsVersion {
		return true
	}
	for _, e := range sk.epochs {
		if epochOf(e.table) != e.epoch {
			return true
		}
	}
	return false
}

// Instantiate rebinds the skeleton onto a freshly bound instance of the
// same shape. It returns ok=false — caller falls back to the optimizer —
// when the bound arity does not match or a coverage-dependent access choice
// no longer holds for the new literals. The returned plan carries empty
// remainders; the engine re-derives them against the live store.
func (sk *PlanSkeleton) Instantiate(b *BoundQuery, store *semstore.Store, opts *Options) (*Plan, bool) {
	if len(b.Rels) != sk.numRels || len(b.Joins) != sk.numJoins {
		return nil, false
	}
	covered := func(rel *Rel) bool {
		for _, ab := range rel.AccessBoxes() {
			if store == nil || opts.DisableSQR || !store.Covered(rel.Table.Name, ab, opts.Since) {
				return false
			}
		}
		return true
	}
	steps := make([]Step, 0, len(sk.Steps))
	for _, s := range sk.Steps {
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
			if unsatisfiedBound(rel) && len(rel.AccessBoxes()) > 0 && !covered(rel) {
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
		steps = append(steps, Step{
			Rel:       s.Rel,
			Kind:      s.Kind,
			BindJoin:  s.BindJoin,
			Joins:     append([]int(nil), s.Joins...),
			Remainder: rewrite.Plan{},
			EstTrans:  s.EstTrans,
			EstRows:   s.EstRows,
		})
	}
	return &Plan{
		Bound:    b,
		Steps:    steps,
		EstTrans: sk.EstTrans,
		EstRows:  sk.EstRows,
		Planner:  PlannerCached,
	}, true
}

// unsatisfiedBound reports whether the relation has a bound attribute with
// no predicate supplying its value (re-derived exactly as prepRel does).
func unsatisfiedBound(rel *Rel) bool {
	for _, a := range rel.Table.Attrs {
		if a.Binding != catalog.Bound {
			continue
		}
		if _, ok := rel.Query.Pred(a.Name); !ok {
			return true
		}
	}
	return false
}

// PlanCache is a bounded LRU of plan skeletons keyed by normalized shape.
// Safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List
	entries map[string]*list.Element
	metrics *obs.Metrics
}

// NewPlanCache returns an empty cache holding at most capacity skeletons;
// capacity <= 0 means DefaultPlanCacheSize.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{cap: capacity, ll: list.New(), entries: make(map[string]*list.Element)}
}

// SetMetrics attaches the metrics sink that counts hits, misses,
// invalidations and evictions; the cache keeps no counters of its own. Call
// before the cache is shared across goroutines.
func (c *PlanCache) SetMetrics(m *obs.Metrics) { c.metrics = m }

// Get returns the live skeleton for the key, or nil on a miss. A skeleton
// whose invalidation snapshot moved (epochOf/statsVersion disagree with
// compile time) is discarded and counted as an invalidation plus a miss.
func (c *PlanCache) Get(key string, epochOf func(table string) uint64, statsVersion uint64) *PlanSkeleton {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.metrics.ObservePlanCacheLookup(false, false)
		return nil
	}
	sk := el.Value.(*PlanSkeleton)
	if sk.stale(epochOf, statsVersion) {
		c.ll.Remove(el)
		delete(c.entries, key)
		c.mu.Unlock()
		c.metrics.ObservePlanCacheLookup(false, true)
		return nil
	}
	c.ll.MoveToFront(el)
	c.mu.Unlock()
	c.metrics.ObservePlanCacheLookup(true, false)
	return sk
}

// Put inserts or replaces the skeleton under its Key, evicting the least
// recently used entry when over capacity.
func (c *PlanCache) Put(sk *PlanSkeleton) {
	if sk == nil || sk.Key == "" {
		return
	}
	c.mu.Lock()
	var evicted bool
	if el, ok := c.entries[sk.Key]; ok {
		el.Value = sk
		c.ll.MoveToFront(el)
	} else {
		c.entries[sk.Key] = c.ll.PushFront(sk)
		if c.ll.Len() > c.cap {
			back := c.ll.Back()
			old := c.ll.Remove(back).(*PlanSkeleton)
			delete(c.entries, old.Key)
			evicted = true
		}
	}
	c.mu.Unlock()
	if evicted {
		c.metrics.ObservePlanCacheEviction()
	}
}

// Len returns the number of cached skeletons.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
