package core

import (
	"fmt"
	"testing"
	"time"

	"payless/internal/obs"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/storage"
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
	cache, metrics := NewPlanCache(capacity), obs.NewMetrics()
	cache.SetMetrics(metrics)
	return cache, metrics
}

// epochsAt builds an epoch lookup returning one fixed value for every table.
func epochsAt(e uint64) func(string) uint64 {
	return func(string) uint64 { return e }
}

// putPlan optimizes sql and caches its plan under key at the given epochs.
func putPlan(t *testing.T, f *fixture, cache *PlanCache, sql, key string, epoch, statsVersion uint64) {
	t.Helper()
	cache.Put(key, f.optimize(t, sql, Options{}), epochsAt(epoch), statsVersion)
}

func TestPlanCacheHitReturnsSameSkeleton(t *testing.T) {
	f := newFixture(t, numTable("R", 1000, "a", "b"))
	cache, metrics := meteredCache(4)
	putPlan(t, f, cache, "SELECT * FROM R WHERE a >= 10", "k1", 3, 7)
	got := cache.Get("k1", epochsAt(3), 7)
	if got == nil || got.key != "k1" {
		t.Fatalf("fresh entry must hit: %v", got)
	}
	if cache.Get("missing", epochsAt(3), 7) != nil {
		t.Fatal("unknown key must miss")
	}
	st := metrics.Snapshot()
	if st.PlanCacheHits != 1 || st.PlanCacheMisses != 1 || st.PlanCacheInvalidations != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestPlanCacheInvalidatesOnEpochAndStats(t *testing.T) {
	f := newFixture(t, numTable("R", 1000, "a", "b"))
	cases := []struct {
		name         string
		epoch        uint64
		statsVersion uint64
	}{
		{"epoch-moved", 4, 7},
		{"stats-moved", 3, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache, metrics := meteredCache(4)
			putPlan(t, f, cache, "SELECT * FROM R WHERE a >= 10", "k1", 3, 7)
			if got := cache.Get("k1", epochsAt(tc.epoch), tc.statsVersion); got != nil {
				t.Fatalf("stale entry served: %+v", got)
			}
			if st := metrics.Snapshot(); st.PlanCacheInvalidations != 1 || st.PlanCacheMisses != 1 || cache.Len() != 0 {
				t.Errorf("stale entry must be dropped: %d invalidations, %d misses, %d entries",
					st.PlanCacheInvalidations, st.PlanCacheMisses, cache.Len())
			}
			// The slot is free again: a re-put at the new state hits.
			putPlan(t, f, cache, "SELECT * FROM R WHERE a >= 10", "k1", tc.epoch, tc.statsVersion)
			if cache.Get("k1", epochsAt(tc.epoch), tc.statsVersion) == nil {
				t.Error("re-cached entry must hit")
			}
		})
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	f := newFixture(t, numTable("R", 1000, "a", "b"))
	cache, metrics := meteredCache(2)
	for i := 0; i < 3; i++ {
		putPlan(t, f, cache, "SELECT * FROM R WHERE a >= 10", fmt.Sprintf("k%d", i), 1, 1)
	}
	if cache.Len() != 2 {
		t.Fatalf("capacity 2, holds %d", cache.Len())
	}
	if cache.Get("k0", epochsAt(1), 1) != nil {
		t.Error("oldest entry must be evicted")
	}
	if cache.Get("k2", epochsAt(1), 1) == nil || cache.Get("k1", epochsAt(1), 1) == nil {
		t.Error("recent entries must survive")
	}
	// k2 and k1 were both touched; inserting k3 now evicts the least
	// recently used key, k2.
	putPlan(t, f, cache, "SELECT * FROM R WHERE a >= 10", "k3", 1, 1)
	if cache.Get("k2", epochsAt(1), 1) != nil {
		t.Error("LRU order must follow hits, not insertion")
	}
	if n := metrics.Snapshot().PlanCacheEvictions; n != 2 {
		t.Errorf("evictions: %d, want 2", n)
	}
}

// cachedFor caches plan under key at the store's current epochs and returns
// the entry a lookup serves.
func cachedFor(t *testing.T, f *fixture, plan *Plan) *CachedPlan {
	t.Helper()
	cache := NewPlanCache(1)
	cache.Put("k", plan, f.store.Epoch, 1)
	cp := cache.Get("k", f.store.Epoch, 1)
	if cp == nil {
		t.Fatal("a fresh entry must hit")
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
	// A shape with a different relation count must be rejected outright.
	if _, ok := cp.Instantiate(f.bind(t, "SELECT * FROM R WHERE R.b >= 1"), f.store, &opts); ok {
		t.Error("arity mismatch must reject")
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
	if _, err := f.store.Record(r, r.FullBox(), nil, time.Now()); err != nil {
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

// TestInstanceNamesItsOwnAliases: a cache hit reuses the entry's plan line
// only when it spells every alias as the entry does. Normalize lowercases
// names, so a hit may spell them otherwise, and then it renders its own.
func TestInstanceNamesItsOwnAliases(t *testing.T) {
	f := newFixture(t, numTable("R", 1000, "a", "b"), numTable("S", 500, "a", "c"))
	plan := f.optimize(t, "SELECT * FROM R, S WHERE R.a = S.a AND R.b >= 10 AND R.b <= 30", Options{})
	cp := cachedFor(t, f, plan)
	opts := Options{}
	for _, sql := range []string{
		"SELECT * FROM R, S WHERE R.a = S.a AND R.b >= 40 AND R.b <= 55",
		"SELECT * FROM r, s WHERE r.a = s.a AND r.b >= 40 AND r.b <= 55",
		"SELECT * FROM R, s WHERE R.a = s.a AND R.b >= 40 AND R.b <= 55",
	} {
		got, ok := cp.Instantiate(f.bind(t, sql), f.store, &opts)
		if !ok {
			t.Fatalf("%s: same-shape instantiation must succeed", sql)
		}
		fresh := &Plan{Bound: got.Bound, Steps: got.Steps, EstTrans: got.EstTrans}
		if got.String() != fresh.String() {
			t.Errorf("%s: plan line %q, its own aliases render %q", sql, got.String(), fresh.String())
		}
	}
}
