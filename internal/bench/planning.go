// Planning hot path experiment: how many plans per second the dynamic
// program and the plan-template cache produce over a pool of distinct query
// templates. The cached series measures exactly what the cache substitutes
// for the dynamic program on a hit — skeleton scan + lookup + instantiation
// — so the ratio to the DP series is the end-to-end planning speedup.
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"payless/internal/catalog"
	"payless/internal/core"
	"payless/internal/market"
	"payless/internal/region"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/stats"
	"payless/internal/storage"
	"payless/internal/workload"
)

// PlanParams scales the planning experiment.
type PlanParams struct {
	// Sizes are the template-pool sizes to sweep (the cache holds them all).
	Sizes []int
	// Ops is how many plans each timing pass produces (round-robin over the
	// pool); 0 picks a default.
	Ops int
	// RealCfg shapes the WHW catalog the templates run against.
	RealCfg workload.WHWConfig
	Seed    int64
}

// DefaultPlanParams returns the harness's default planning sweep.
func DefaultPlanParams() PlanParams {
	return PlanParams{
		Sizes:   []int{100, 1000},
		Ops:     2000,
		RealCfg: workload.DefaultWHWConfig(),
		Seed:    42,
	}
}

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

// planningEnv is the catalog/statistics/store triple the planners run
// against, plus every template compiled and bound once up front.
type planningEnv struct {
	cat   *catalog.Catalog
	store *semstore.Store
	st    *stats.Store
	sqls  []string
	stmts []*core.Statement
	bound []*core.BoundQuery
}

func newPlanningEnv(p PlanParams, n int) (*planningEnv, error) {
	w := workload.GenerateWHW(p.RealCfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		return nil, err
	}
	env := &planningEnv{
		cat:   catalog.New(),
		store: semstore.New(storage.NewDB()),
		st:    stats.New(),
	}
	for _, tb := range append(m.ExportCatalog(), w.ZipMap) {
		if err := env.cat.Register(tb); err != nil {
			return nil, err
		}
		if !tb.Local {
			env.st.Register(tb.Name, tb.FullBox(), tb.Cardinality)
			if err := warmStore(env.store, tb); err != nil {
				return nil, err
			}
		}
	}
	for _, sql := range planningTemplates(n) {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("template %q: %w", sql, err)
		}
		shape, err := core.NewShape(q, env.cat)
		if err != nil {
			return nil, fmt.Errorf("template %q: %w", sql, err)
		}
		b, err := shape.Bind(q)
		if err != nil {
			return nil, fmt.Errorf("template %q: %w", sql, err)
		}
		tmpl, err := sqlparse.NewTemplate(sql)
		if err != nil {
			return nil, fmt.Errorf("template %q: %w", sql, err)
		}
		env.sqls = append(env.sqls, sql)
		env.stmts = append(env.stmts, &core.Statement{Template: tmpl, Shape: shape})
		env.bound = append(env.bound, b)
	}
	return env, nil
}

// warmStore records alternating slabs of one table's widest dimension into
// the semantic store. Production planning always runs against a store with
// prior purchases — partial coverage makes the optimizer cost non-trivial
// remainders for every candidate, like it does after any real warmup, while
// leaving every table partially uncovered (no plan degenerates to a free
// local scan).
func warmStore(store *semstore.Store, tb *catalog.Table) error {
	box := tb.FullBox()
	dim, span := -1, int64(0)
	for i, iv := range box.Dims {
		if s := iv.Hi - iv.Lo; s > span {
			dim, span = i, s
		}
	}
	const slabs = 16
	if dim < 0 || span < slabs {
		return nil
	}
	width := span / slabs
	for k := 0; k < slabs; k += 2 {
		sub := region.Box{Dims: append([]region.Interval(nil), box.Dims...)}
		lo := box.Dims[dim].Lo + int64(k)*width
		sub.Dims[dim] = region.Interval{Lo: lo, Hi: lo + width}
		if _, err := store.Record(tb, sub, nil, time.Now()); err != nil {
			return err
		}
	}
	return nil
}

// planDP runs the full dynamic program for template i.
func (e *planningEnv) planDP(i int) (*core.Plan, error) {
	o := core.Optimizer{Catalog: e.cat, Store: e.store, Stats: e.st}
	return o.Optimize(e.bound[i])
}

// warmCache optimizes every template once, on GOMAXPROCS goroutines (the
// optimizer only reads the store and the statistics), and fills a cache
// with the plans, exactly as the client does on a miss. It returns the
// dynamic program's plans too, by template.
func (e *planningEnv) warmCache() (*core.PlanCache, []*core.Plan, error) {
	plans := make([]*core.Plan, len(e.bound))
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
		return nil, nil, err
	}
	cache := core.NewPlanCache(len(e.bound), nil)
	for i, plan := range plans {
		skel, _, _ := sqlparse.Scan(e.sqls[i], nil, nil) // it parsed
		st := cache.Put(skel, &core.Statement{Template: e.stmts[i].Template, Shape: e.stmts[i].Shape})
		st.SetPlan(plan, e.store.Epoch, e.st.Version())
	}
	return cache, plans, nil
}

// planCached is the cache-hit planning path for template i: scan the
// statement's skeleton, look its entry up, instantiate the cached plan.
func (e *planningEnv) planCached(cache *core.PlanCache, i int) (*core.Plan, error) {
	var skelBuf [512]byte
	var litBuf [16]sqlparse.Literal
	skel, _, _ := sqlparse.Scan(e.sqls[i], skelBuf[:0], litBuf[:0]) // it parsed
	st := cache.Lookup(skel)
	if st == nil {
		return nil, fmt.Errorf("template %d missed a warmed cache", i)
	}
	cp := st.Plan(e.store.Epoch, e.st.Version(), nil)
	if cp == nil {
		return nil, fmt.Errorf("template %d's cached plan went stale", i)
	}
	opts := core.Options{}
	plan, ok := cp.Instantiate(e.bound[i], e.store, &opts)
	if !ok {
		return nil, fmt.Errorf("template %d cached plan refused to instantiate", i)
	}
	return plan, nil
}

// FigPlan sweeps the template-pool size and reports plans per second for
// the dynamic program and the cache-hit path (EXPERIMENTS.md: paylessbench
// -fig plan).
func FigPlan(p PlanParams) (*Figure, error) {
	if len(p.Sizes) == 0 {
		p = DefaultPlanParams()
	}
	if p.Ops <= 0 {
		p.Ops = DefaultPlanParams().Ops
	}
	fig := &Figure{
		ID:     "FigPlan",
		Title:  "Planning hot path (plans/sec, DP vs plan-template cache)",
		XLabel: "templates",
	}
	dp := Series{System: "DP"}
	cached := Series{System: "Cached"}
	for _, n := range p.Sizes {
		env, err := newPlanningEnv(p, n)
		if err != nil {
			return nil, err
		}
		cache, _, err := env.warmCache()
		if err != nil {
			return nil, err
		}
		// Each pass runs p.Ops plans or 2 seconds, whichever comes first —
		// the DP series is thousands of times slower than a cache hit, and
		// a time cap keeps the sweep's wall clock bounded without skewing
		// the per-plan rate.
		perSec := func(plan func(i int) (*core.Plan, error)) (int64, error) {
			const cap = 2 * time.Second
			start := time.Now()
			ops := 0
			for ; ops < p.Ops; ops++ {
				if _, err := plan(ops % n); err != nil {
					return 0, err
				}
				if time.Since(start) > cap {
					ops++
					break
				}
			}
			elapsed := time.Since(start)
			if elapsed <= 0 {
				elapsed = time.Nanosecond
			}
			return int64(float64(ops) / elapsed.Seconds()), nil
		}
		add := func(ser *Series, rate int64) {
			ser.X = append(ser.X, n)
			ser.Y = append(ser.Y, rate)
		}
		rate, err := perSec(env.planDP)
		if err != nil {
			return nil, err
		}
		add(&dp, rate)
		if rate, err = perSec(func(i int) (*core.Plan, error) { return env.planCached(cache, i) }); err != nil {
			return nil, err
		}
		add(&cached, rate)
	}
	fig.Series = []Series{dp, cached}
	return fig, nil
}
