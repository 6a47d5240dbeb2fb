package core

import (
	"fmt"
	"testing"
	"time"

	"payless/internal/obs"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/storage"
	"payless/internal/value"
)

// bind parses and binds a statement against the fixture's catalog.
func (f *fixture) bind(t *testing.T, sql string) *BoundQuery {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(q, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// meteredCache returns a cache of the given capacity and the registry that
// counts its activity.
func meteredCache(capacity int) (*PlanCache, *obs.Metrics) {
	metrics := obs.NewMetrics()
	return NewPlanCache(capacity, metrics), metrics
}

// putPlan caches a statement under skel and optimizes sql into its plan
// slot at the fixture's current statistics versions.
func putPlan(t *testing.T, f *fixture, cache *PlanCache, sql, skel string) *Statement {
	t.Helper()
	st := &Statement{}
	cache.Put([]byte(skel), st)
	st.SetPlan(f.optimize(t, sql, Options{}), f.st)
	return st
}

func TestPlanCacheHitReturnsSameSkeleton(t *testing.T) {
	f := newFixture(t, numTable("R", 1000, "a", "b"))
	cache, metrics := meteredCache(4)
	put := putPlan(t, f, cache, "SELECT * FROM R WHERE a >= 10", "k1")
	st := cache.Lookup([]byte("k1"))
	if st != put {
		t.Fatalf("a cached skeleton must hit: %v", st)
	}
	if cp := st.Plan(metrics); cp == nil || cp != put.plan.Load() {
		t.Fatalf("a fresh plan must hit: %v", cp)
	}
	if cache.Lookup([]byte("missing")) != nil {
		t.Fatal("unknown skeleton must miss")
	}
	// A concurrent miss's statement yields to the entry cached first.
	if got := cache.Put([]byte("k1"), &Statement{}); got != put {
		t.Fatalf("a second Put of a skeleton returned %v, want the cached entry", got)
	}
	// A statement without a plan misses; a statement lookup counts nothing.
	bare := &Statement{}
	cache.Put([]byte("k2"), bare)
	if bare.Plan(metrics) != nil {
		t.Fatal("a statement without a plan must miss")
	}
	m := metrics.Snapshot()
	if m.PlanCacheHits != 1 || m.PlanCacheMisses != 1 || m.PlanCacheInvalidations != 0 {
		t.Errorf("stats: %+v", m)
	}
}

// TestPlanCacheInvalidatesOnEpochAndStats: a plan goes stale once the
// statistics of a table it reads move, and only then. Coverage epochs no
// longer invalidate plans, so only the stats case is left. Feedback on S,
// which an R-only plan does not read, leaves it a hit; feedback on R empties
// its slot but keeps the statement, and a plan set at the new versions hits.
func TestPlanCacheInvalidatesOnEpochAndStats(t *testing.T) {
	t.Run("stats-moved", func(t *testing.T) {
		r, other := numTable("R", 1000, "a", "b"), numTable("S", 1000, "a", "c")
		f := newFixture(t, r, other)
		cache, metrics := meteredCache(4)
		const sql = "SELECT * FROM R WHERE a >= 10"
		put := putPlan(t, f, cache, sql, "k1")
		f.st.Feedback("S", other.FullBox(), 400)
		if put.Plan(metrics) == nil {
			t.Fatal("feedback on a table the plan does not read must leave it a hit")
		}
		f.st.Feedback("R", r.FullBox(), 900)
		if cp := put.Plan(metrics); cp != nil {
			t.Fatalf("stale plan served: %+v", cp)
		}
		st := cache.Lookup([]byte("k1"))
		if m := metrics.Snapshot(); m.PlanCacheInvalidations != 1 || m.PlanCacheMisses != 1 || st != put || put.plan.Load() != nil || cache.ll.Len() != 1 {
			t.Errorf("a stale plan must empty its slot and keep its statement: %d invalidations, %d misses, statement %v, slot %v, %d entries",
				m.PlanCacheInvalidations, m.PlanCacheMisses, st, put.plan.Load(), cache.ll.Len())
		}
		// The slot is free again: a plan set at the new versions hits.
		put.SetPlan(f.optimize(t, sql, Options{}), f.st)
		if put.Plan(metrics) == nil {
			t.Error("re-cached plan must hit")
		}
	})
}

func TestPlanCacheLRUEviction(t *testing.T) {
	f := newFixture(t, numTable("R", 1000, "a", "b"))
	cache, metrics := meteredCache(2)
	for i := 0; i < 3; i++ {
		putPlan(t, f, cache, "SELECT * FROM R WHERE a >= 10", fmt.Sprintf("k%d", i))
	}
	if cache.ll.Len() != 2 || len(cache.entries) != 2 {
		t.Fatalf("capacity 2, holds %d", cache.ll.Len())
	}
	lookup := func(skel string) *Statement { return cache.Lookup([]byte(skel)) }
	if lookup("k0") != nil {
		t.Error("oldest entry must be evicted")
	}
	if lookup("k2") == nil || lookup("k1") == nil {
		t.Error("recent entries must survive")
	}
	// k2 and k1 were both touched; inserting k3 now evicts the least
	// recently used skeleton, k2.
	putPlan(t, f, cache, "SELECT * FROM R WHERE a >= 10", "k3")
	if lookup("k2") != nil {
		t.Error("LRU order must follow hits, not insertion")
	}
	// Evicting a statement without a plan drops no plan.
	cache.Put([]byte("k4"), &Statement{})
	cache.Put([]byte("k5"), &Statement{})
	cache.Put([]byte("k6"), &Statement{})
	if n := metrics.Snapshot().PlanCacheEvictions; n != 4 {
		t.Errorf("evictions: %d, want 4", n)
	}
}

// cachedFor caches plan in a statement's slot at the current statistics
// versions and returns the plan a lookup serves.
func cachedFor(t *testing.T, f *fixture, plan *Plan) *CachedPlan {
	t.Helper()
	st := &Statement{}
	st.SetPlan(plan, f.st)
	cp := st.Plan(nil)
	if cp == nil {
		t.Fatal("a fresh plan must hit")
	}
	return cp
}

// TestSkeletonInstantiateMatchesPlan: instantiating a cached plan onto a
// fresh binding of another instance reproduces the plan structurally, with
// the remainders cleared, and labels it as cache-served; caching leaves the
// original plan untouched.
func TestSkeletonInstantiateMatchesPlan(t *testing.T) {
	f := newFixture(t, numTable("R", 1000, "a", "b"), numTable("S", 500, "a", "c"))
	sql := "SELECT * FROM R, S WHERE R.a = S.a AND R.b >= 10 AND R.b <= 30"
	plan := f.optimize(t, sql, Options{})
	before := plan.Describe()
	cp := cachedFor(t, f, plan)
	if plan.Describe() != before {
		t.Error("caching a plan must not modify it")
	}

	other := f.bind(t, "SELECT * FROM R, S WHERE R.a = S.a AND R.b >= 40 AND R.b <= 55")
	opts := Options{}
	got, ok := cp.Instantiate(other, f.store, &opts)
	if !ok {
		t.Fatal("same-shape instantiation must succeed")
	}
	if got.Planner != PlannerCached {
		t.Errorf("planner: %q", got.Planner)
	}
	if len(got.Steps) != len(plan.Steps) {
		t.Fatalf("steps: %d vs %d", len(got.Steps), len(plan.Steps))
	}
	for i := range got.Steps {
		if got.Steps[i].Rel != plan.Steps[i].Rel || got.Steps[i].Kind != plan.Steps[i].Kind {
			t.Errorf("step %d diverged: %+v vs %+v", i, got.Steps[i], plan.Steps[i])
		}
	}
	if got.Bound != other || got.Counters != (Counters{}) || got.Optimized != 0 {
		t.Errorf("instance: bound %p (want %p), counters %+v, optimized %v", got.Bound, other, got.Counters, got.Optimized)
	}
}

// TestSkeletonInstantiateRejectsUncoveredLocalScan: a cached plan that
// leaned on semantic-store coverage (a zero-price LocalScan over a market
// table) must refuse to instantiate when the store no longer backs it —
// otherwise a stale entry would silently return incomplete rows.
func TestSkeletonInstantiateRejectsUncoveredLocalScan(t *testing.T) {
	r := numTable("R", 1000, "a", "b")
	s := numTable("S", 1000, "c", "d")
	f := newFixture(t, r, s)
	if _, err := f.store.Record(r, r.FullBox(), value.Batch{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM R, S WHERE R.a = S.c"
	plan := f.optimize(t, sql, Options{})
	if plan.Steps[0].Kind != LocalScan {
		t.Fatalf("setup: covered R must plan as LocalScan, got %v", plan.Steps[0].Kind)
	}
	cp := cachedFor(t, f, plan)
	opts := Options{}

	// Same store: fine.
	if _, ok := cp.Instantiate(f.bind(t, sql), f.store, &opts); !ok {
		t.Fatal("covered instantiation must succeed")
	}
	// Empty store: the LocalScan has nothing behind it.
	empty := semstore.New(storage.NewDB())
	if _, ok := cp.Instantiate(f.bind(t, sql), empty, &opts); ok {
		t.Error("uncovered LocalScan must reject")
	}
	// SQR disabled: coverage may not be consulted, so the plan is invalid too.
	noSQR := Options{DisableSQR: true}
	if _, ok := cp.Instantiate(f.bind(t, sql), f.store, &noSQR); ok {
		t.Error("DisableSQR must reject store-backed LocalScan")
	}
}
