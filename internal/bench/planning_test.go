package bench

import (
	"testing"

	"payless/internal/sqlparse"
)

// planningBenchEnv builds the 1k-template environment once per benchmark.
func planningBenchEnv(tb testing.TB, n int) *planningEnv {
	tb.Helper()
	p := DefaultPlanParams()
	env, err := newPlanningEnv(p, n)
	if err != nil {
		tb.Fatal(err)
	}
	return env
}

// BenchmarkDPPlanner is the baseline: full dynamic-program planning.
func BenchmarkDPPlanner(b *testing.B) {
	env := planningBenchEnv(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.planDP(i % len(env.bound)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCache times the cache-hit path at 1k cached templates:
// skeleton scan + lookup + instantiation.
func BenchmarkPlanCache(b *testing.B) {
	env := planningBenchEnv(b, 1000)
	cache, _, err := env.warmCache()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.planCached(cache, i%len(env.bound)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanCacheSkipsTheSearch is the CI gate on the planning hot path, in
// the quantity the cache exists to remove: with 1k cached templates, every
// template's cache-hit plan is produced without evaluating a single
// candidate plan, and is the plan the dynamic program searches for. (Plans per second are measured
// by BenchmarkPlanCache/BenchmarkDPPlanner and FigPlan, not asserted here.)
func TestPlanCacheSkipsTheSearch(t *testing.T) {
	env := planningBenchEnv(t, 1000)
	cache, dps, err := env.warmCache()
	if err != nil {
		t.Fatal(err)
	}
	for i, dp := range dps {
		hit, err := env.planCached(cache, i)
		if err != nil {
			t.Fatal(err)
		}
		if hit.Counters.PlansEvaluated != 0 {
			t.Fatalf("template %d: a cache hit evaluated %d candidate plans, want 0", i, hit.Counters.PlansEvaluated)
		}
		if dp.Counters.PlansEvaluated == 0 {
			t.Fatalf("template %d: the DP reports no plans evaluated", i)
		}
		if hit.String() != dp.String() {
			t.Fatalf("template %d: cached plan %s, DP plan %s", i, hit, dp)
		}
	}
}

// TestPlanCacheHitAllocs gates the garbage of the cache-hit planning path:
// scanning a 4-relation template's skeleton, looking its entry up and
// instantiating the cached plan makes at most 1 allocation: the plan copy.
func TestPlanCacheHitAllocs(t *testing.T) {
	env := planningBenchEnv(t, 16)
	cache, _, err := env.warmCache()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := env.planCached(cache, i%len(env.bound)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%v allocations per cache-hit plan", allocs)
	if allocs > 1 {
		t.Errorf("cache-hit planning made %.1f allocations per plan, want <= 1", allocs)
	}
}

// TestPlanningTemplatesDistinct guards the generator the sweep relies on:
// every generated template must have its own skeleton, so its own cache
// entry (otherwise the "1k cached templates" claim would be quietly
// measuring fewer).
func TestPlanningTemplatesDistinct(t *testing.T) {
	env := planningBenchEnv(t, 1000)
	if got := len(env.sqls); got != 1000 {
		t.Fatalf("generated %d templates, want 1000", got)
	}
	keys := make(map[string]bool, len(env.sqls))
	for _, sql := range env.sqls {
		skel, _, err := sqlparse.Scan(sql, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[string(skel)] = true
	}
	if len(keys) != 1000 {
		t.Fatalf("1000 templates produced %d cache keys — shapes collide", len(keys))
	}
}

// TestFigPlan smoke-runs the figure at a small scale.
func TestFigPlan(t *testing.T) {
	p := DefaultPlanParams()
	p.Sizes = []int{20}
	p.Ops = 40
	fig, err := FigPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 1 || s.Y[0] <= 0 {
			t.Errorf("series %s: %v", s.System, s.Y)
		}
	}
}
