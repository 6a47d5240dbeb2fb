package core

// The planning hot path: the dynamic program and the plan-template cache
// over a pool of structurally distinct templates. The cache-hit path is
// exactly what the cache substitutes for the dynamic program on a hit —
// skeleton scan + lookup + instantiation — so BenchmarkPlanCache against
// BenchmarkDPPlanner is the end-to-end planning speedup.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/region"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// planningTemplates generates n structurally distinct SQL templates over the
// WHW schema: a Pollution–ZipMap–Station–Weather join chain with every
// combination of selective conditions, select list and IN-list arity. Each
// combination has its own skeleton, so its own plan-cache entry.
func planningTemplates(n int) []string {
	conds := []string{
		"Weather.Date >= 20140601",
		"Weather.Date <= 20140615",
		"Station.Country = 'Country00'",
		"Pollution.Rank >= 1",
		"Pollution.Rank <= 50",
		"Weather.StationID >= 1001",
	}
	selects := []string{"*", "COUNT(*)"}
	out := make([]string, 0, n)
	for arity := 0; len(out) < n; arity++ {
		inVals := make([]string, arity+1)
		for i := range inVals {
			inVals[i] = fmt.Sprintf("'Country%02d'", i)
		}
		inCond := "Station.Country IN (" + strings.Join(inVals, ", ") + ")"
		for mask := 0; mask < 1<<len(conds) && len(out) < n; mask++ {
			for _, sel := range selects {
				where := []string{
					"Pollution.ZipCode = ZipMap.ZipCode",
					"ZipMap.City = Station.City",
					"Station.StationID = Weather.StationID",
				}
				for i, c := range conds {
					if mask&(1<<i) != 0 {
						where = append(where, c)
					}
				}
				if arity > 0 {
					where = append(where, inCond)
				}
				out = append(out, fmt.Sprintf(
					"SELECT %s FROM Pollution, ZipMap, Station, Weather WHERE %s",
					sel, strings.Join(where, " AND ")))
				if len(out) == n {
					break
				}
			}
		}
	}
	return out
}

// planningEnv is the planners' fixture over the WHW catalog, with a warmed
// store, plus every template compiled and bound once up front.
type planningEnv struct {
	*fixture
	sqls  []string
	stmts []*Statement
	bound []*BoundQuery
}

func newPlanningEnv(tb testing.TB, n int) *planningEnv {
	tb.Helper()
	w := workload.GenerateWHW(workload.DefaultWHWConfig())
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		tb.Fatal(err)
	}
	tables := append(m.ExportCatalog(), w.ZipMap)
	env := &planningEnv{fixture: newFixture(tb, tables...)}
	for _, table := range tables {
		if !table.Local {
			warmStore(tb, env.store, table)
		}
	}
	for _, sql := range planningTemplates(n) {
		q, err := sqlparse.Parse(sql)
		var shape *Shape
		var b *BoundQuery
		var tmpl *sqlparse.Template
		if err == nil {
			shape, err = NewShape(q, env.cat)
		}
		if err == nil {
			b, err = shape.Bind(q)
		}
		if err == nil {
			tmpl, err = sqlparse.NewTemplate(sql)
		}
		if err != nil {
			tb.Fatalf("template %q: %v", sql, err)
		}
		env.sqls = append(env.sqls, sql)
		env.stmts = append(env.stmts, &Statement{Template: tmpl, Shape: shape})
		env.bound = append(env.bound, b)
	}
	return env
}

// warmStore records alternating slabs of one table's widest dimension into
// the semantic store. Production planning always runs against a store with
// prior purchases — partial coverage makes the optimizer cost non-trivial
// remainders for every candidate, like it does after any real warmup, while
// leaving every table partially uncovered (no plan degenerates to a free
// local scan).
func warmStore(tb testing.TB, store *semstore.Store, table *catalog.Table) {
	box := table.FullBox()
	dim, span := -1, int64(0)
	for i, iv := range box.Dims {
		if s := iv.Hi - iv.Lo; s > span {
			dim, span = i, s
		}
	}
	const slabs = 16
	if dim < 0 || span < slabs {
		return
	}
	width := span / slabs
	for k := 0; k < slabs; k += 2 {
		sub := region.Box{Dims: append([]region.Interval(nil), box.Dims...)}
		lo := box.Dims[dim].Lo + int64(k)*width
		sub.Dims[dim] = region.Interval{Lo: lo, Hi: lo + width}
		if _, err := store.Record(table, sub, value.Batch{}, time.Now()); err != nil {
			tb.Fatal(err)
		}
	}
}

// sample keeps every step-th template.
func (e *planningEnv) sample(step int) {
	for i := 0; i*step < len(e.sqls); i++ {
		e.sqls[i], e.stmts[i], e.bound[i] = e.sqls[i*step], e.stmts[i*step], e.bound[i*step]
	}
	n := (len(e.sqls) + step - 1) / step
	e.sqls, e.stmts, e.bound = e.sqls[:n], e.stmts[:n], e.bound[:n]
}

// planDP runs the full dynamic program for template i.
func (e *planningEnv) planDP(i int) (*Plan, error) {
	o := Optimizer{Catalog: e.cat, Store: e.store, Stats: e.st}
	return o.Optimize(e.bound[i])
}

// warmCache optimizes every template once, on GOMAXPROCS goroutines (the
// optimizer only reads the store and the statistics), and fills a cache
// with the plans, exactly as the client does on a miss. It returns the
// dynamic program's plans too, by template.
func (e *planningEnv) warmCache(tb testing.TB) (*PlanCache, []*Plan) {
	plans := make([]*Plan, len(e.bound))
	errs := make([]error, len(e.bound))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(plans); i = int(next.Add(1)) - 1 {
				plans[i], errs[i] = e.planDP(i)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		tb.Fatal(err)
	}
	cache := NewPlanCache(len(e.bound), nil)
	for i, plan := range plans {
		skel, _, _ := sqlparse.Scan(e.sqls[i], nil, nil) // it parsed
		st := cache.Put(skel, &Statement{Template: e.stmts[i].Template, Shape: e.stmts[i].Shape})
		st.SetPlan(plan, e.st)
	}
	return cache, plans
}

// planCached is the cache-hit planning path for template i: scan the
// statement's skeleton, look its entry up, instantiate the cached plan.
func (e *planningEnv) planCached(tb testing.TB, cache *PlanCache, i int) *Plan {
	var skelBuf [512]byte
	var litBuf [16]sqlparse.Literal
	skel, _, _ := sqlparse.Scan(e.sqls[i], skelBuf[:0], litBuf[:0]) // it parsed
	st := cache.Lookup(skel)
	if st == nil {
		tb.Fatalf("template %d missed a warmed cache", i)
	}
	cp := st.Plan(nil)
	if cp == nil {
		tb.Fatalf("template %d's cached plan went stale", i)
	}
	opts := Options{}
	plan, ok := cp.Instantiate(e.bound[i], e.store, &opts)
	if !ok {
		tb.Fatalf("template %d cached plan refused to instantiate", i)
	}
	return plan
}

// BenchmarkDPPlanner is the baseline: full dynamic-program planning.
func BenchmarkDPPlanner(b *testing.B) {
	env := newPlanningEnv(b, 1000)
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
	env := newPlanningEnv(b, 1000)
	cache, _ := env.warmCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.planCached(b, cache, i%len(env.bound))
	}
}

// TestPlanCacheSkipsTheSearch is the CI gate on the planning hot path, in
// the quantity the cache exists to remove: with 1k cached templates, every
// template's cache-hit plan is produced without evaluating a single
// candidate plan, and is the plan the dynamic program searches for. (Plans
// per second are measured by BenchmarkPlanCache/BenchmarkDPPlanner, not
// asserted here.)
//
// Under the race detector the dynamic program runs about 15 times slower,
// so the cache is warmed with, and the gate checks, every 20th template
// only: 50 of them, with every assertion.
func TestPlanCacheSkipsTheSearch(t *testing.T) {
	env := newPlanningEnv(t, 1000)
	if raceEnabled {
		env.sample(20)
	}
	cache, dps := env.warmCache(t)
	for i, dp := range dps {
		hit := env.planCached(t, cache, i)
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
	env := newPlanningEnv(t, 16)
	cache, _ := env.warmCache(t)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		env.planCached(t, cache, i%len(env.bound))
		i++
	})
	t.Logf("%v allocations per cache-hit plan", allocs)
	if allocs > 1 {
		t.Errorf("cache-hit planning made %.1f allocations per plan, want <= 1", allocs)
	}
}

// TestPlanningTemplatesDistinct guards the generator the planning gates rely
// on: every generated template must have its own skeleton, so its own cache
// entry (otherwise the "1k cached templates" claim would be quietly
// measuring fewer).
func TestPlanningTemplatesDistinct(t *testing.T) {
	env := newPlanningEnv(t, 1000)
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
