package payless

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"payless/internal/workload"
)

// TestPlanCacheInvalidationOnCoverageFlip is the staleness regression test:
// once a purchase flips the winning plan for a cached template (a market
// scan becomes a zero-price semantic-store scan), the cache must re-optimize
// instead of serving the pre-purchase skeleton. The planner= trace line
// proves which path planned each query, and a cache-less client replaying
// the identical sequence proves bill parity.
func TestPlanCacheInvalidationOnCoverageFlip(t *testing.T) {
	_, open, _ := newWHWOracleEnv(t)
	hot := open("inv-hot", func(c *Config) {
		c.PlanCacheSize = 64
		c.Tracer = &CollectTracer{}
	})
	cold := open("inv-cold", func(c *Config) {
		c.Tracer = &CollectTracer{}
	})

	country := "Country00" // first generated country name
	shape := func(lo, hi int) string {
		return fmt.Sprintf("SELECT * FROM Weather WHERE Country = '%s' AND Date >= %d AND Date <= %d",
			country, 20140601+lo, 20140601+hi)
	}
	// The full sequence both clients replay: warm a selective template to a
	// cache hit, flip coverage with a whole-table purchase, then re-instantiate
	// the template twice more.
	sequence := []string{
		shape(2, 5), shape(2, 5), shape(2, 5), // run 1 misses, run 2 re-caches, run 3 hits
		"SELECT * FROM Weather",  // buys the rest of the table: stats move, plan flip
		shape(1, 8),              // same shape, post-flip: must NOT serve the stale skeleton
		shape(1, 8), shape(1, 8), // re-cached flipped plan serves from here
	}

	var hotSpend, coldSpend int64
	planners := make([]string, len(sequence))
	for i, sql := range sequence {
		hres, err := hot.Query(sql)
		if err != nil {
			t.Fatalf("hot query %d: %v", i, err)
		}
		hotSpend += hres.Report.Transactions
		planners[i] = hres.Planner
		if hres.Trace == nil {
			t.Fatalf("hot query %d: no trace", i)
		}
		wantLine := fmt.Sprintf("planner=%s", hres.Planner)
		if !strings.Contains(hres.Trace.Describe(), wantLine) {
			t.Errorf("hot query %d: trace lacks %q:\n%s", i, wantLine, hres.Trace.Describe())
		}

		cres, err := cold.Query(sql)
		if err != nil {
			t.Fatalf("cold query %d: %v", i, err)
		}
		coldSpend += cres.Report.Transactions
		if canon(cres.Rows) != canon(hres.Rows) {
			t.Errorf("query %d: cached client rows diverge from cache-less client\n%s", i, sql)
		}
		if cres.Report.Transactions != hres.Report.Transactions {
			t.Errorf("query %d: cached client billed %d, cache-less billed %d\n%s",
				i, hres.Report.Transactions, cres.Report.Transactions, sql)
		}
	}

	// The planner trail: warmup hits on the 3rd run, the post-flip query
	// re-optimizes (anything but cached), and the flipped plan is itself
	// cached again by the final run.
	if planners[2] != PlannerCached {
		t.Errorf("warmup run 3 planned via %q, want %q (trail %v)", planners[2], PlannerCached, planners)
	}
	if planners[4] == PlannerCached {
		t.Errorf("post-flip query served the stale cached skeleton (trail %v)", planners)
	}
	if planners[6] != PlannerCached {
		t.Errorf("post-flip run 3 planned via %q, want %q (trail %v)", planners[6], PlannerCached, planners)
	}
	if hotSpend != coldSpend {
		t.Errorf("bill parity broken: cached client %d transactions, cache-less %d", hotSpend, coldSpend)
	}
	if n := hot.Metrics().PlanCacheInvalidations; n == 0 {
		t.Errorf("expected stale-entry invalidations, got %d", n)
	}
}

// TestPlanCacheKeepsPlansOfTablesNotBought: a cached plan goes stale only
// when the statistics of a table it reads move. Buying Station leaves a
// cached Weather-only plan a hit; buying Weather invalidates it.
func TestPlanCacheKeepsPlansOfTablesNotBought(t *testing.T) {
	_, open, _ := newWHWOracleEnv(t)
	c := open("per-table", func(c *Config) { c.PlanCacheSize = 64 })
	const weather = "SELECT * FROM Weather WHERE Country = 'Country00' AND Date >= 20140603 AND Date <= 20140606"
	run := func(sql string) *Result {
		t.Helper()
		res, err := c.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	// Run 1 buys the range, so its plan goes stale at once; run 2, covered,
	// re-caches it and run 3 hits.
	run(weather)
	run(weather)
	if res := run(weather); res.Planner != PlannerCached {
		t.Fatalf("setup: the warmed Weather plan planned via %q", res.Planner)
	}
	before := c.Metrics().PlanCacheInvalidations
	if res := run("SELECT * FROM Station WHERE Country = 'Country01'"); res.Report.Transactions == 0 {
		t.Fatal("setup: the Station query bought nothing")
	}
	if res := run(weather); res.Planner != PlannerCached {
		t.Errorf("after buying Station the Weather-only plan planned via %q, want %q", res.Planner, PlannerCached)
	}
	if n := c.Metrics().PlanCacheInvalidations - before; n != 0 {
		t.Errorf("buying Station invalidated %d plans", n)
	}
	if res := run("SELECT * FROM Weather WHERE Date >= 20140610 AND Date <= 20140611"); res.Report.Transactions == 0 {
		t.Fatal("setup: the second Weather query bought nothing")
	}
	if res := run(weather); res.Planner == PlannerCached {
		t.Error("after buying Weather the stale Weather plan was served")
	}
	if n := c.Metrics().PlanCacheInvalidations - before; n != 1 {
		t.Errorf("buying Weather invalidated %d plans, want 1", n)
	}
}

// TestPlanCacheConcurrentQueryRecord hammers one cached client from many
// goroutines issuing overlapping template instances. Every query both looks
// up the cache and (on a purchase) moves its tables' statistics versions,
// so this is the Get/Put/invalidate race the -race build must clear.
func TestPlanCacheConcurrentQueryRecord(t *testing.T) {
	_, open, templates := newWHWOracleEnv(t)
	client := open("inv-race", func(c *Config) { c.PlanCacheSize = 32 })

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Same seed in every worker: all goroutines race on the same
			// template shapes and literals.
			queries := workload.Mix(templates, 3, 99)
			for _, sql := range queries {
				if _, err := client.Query(sql); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The store is now fully warmed and quiescent: one more pass over the
	// workload must be free and (after the first per-shape re-cache) served
	// from the cache.
	for _, sql := range workload.Mix(templates, 1, 99) {
		if _, err := client.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if st := client.Metrics(); st.PlanCacheHits == 0 {
		t.Errorf("no cache hits after concurrent warmup: %d misses", st.PlanCacheMisses)
	}
}
