package bench

import (
	"testing"

	"payless/internal/core"
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
// normalize + lookup + instantiation.
func BenchmarkPlanCache(b *testing.B) {
	env := planningBenchEnv(b, 1000)
	cache, err := env.warmCache()
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
	cache, err := env.warmCache()
	if err != nil {
		t.Fatal(err)
	}
	for i := range env.bound {
		hit, err := env.planCached(cache, i)
		if err != nil {
			t.Fatal(err)
		}
		if hit.Counters.PlansEvaluated != 0 {
			t.Fatalf("template %d: a cache hit evaluated %d candidate plans, want 0", i, hit.Counters.PlansEvaluated)
		}
		if i%10 != 0 {
			continue // the search is the slow side: compare on a sample
		}
		dp, err := env.planDP(i)
		if err != nil {
			t.Fatal(err)
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
// normalizing a 4-relation template, looking its shape up and instantiating
// the cached plan makes at most 2 allocations: the key and the plan copy.
func TestPlanCacheHitAllocs(t *testing.T) {
	env := planningBenchEnv(t, 16)
	cache, err := env.warmCache()
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
	if allocs > 2 {
		t.Errorf("cache-hit planning made %.1f allocations per plan, want <= 2", allocs)
	}
}

// TestPlanningTemplatesDistinct guards the generator the sweep relies on:
// every generated template must normalize to its own cache key (otherwise
// the "1k cached templates" claim would be quietly measuring fewer).
func TestPlanningTemplatesDistinct(t *testing.T) {
	env := planningBenchEnv(t, 1000)
	if got := len(env.parsed); got != 1000 {
		t.Fatalf("generated %d templates, want 1000", got)
	}
	keys := make(map[string]bool, len(env.parsed))
	for _, q := range env.parsed {
		keys[core.Normalize(q)] = true
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
