package payless

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"payless/internal/core"
	"payless/internal/market"
	"payless/internal/sqlparse"
	"payless/internal/storage"
	"payless/internal/workload"
)

// whwClient opens a client with the given plan-cache size over a small WHW
// market, with ZipMap loaded locally and the named market tables bought
// whole.
func whwClient(t testing.TB, planCache int, buy ...string) (*Client, *workload.WHW) {
	t.Helper()
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 7, Countries: 4, StationsPerCountry: 10, CitiesPerCountry: 4,
		Days: 30, StartDate: 20140601, Zips: 40, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("k")
	c, err := Open(Config{
		Tables:        append(m.ExportCatalog(), w.ZipMap),
		Caller:        market.AccountCaller{Market: m, Key: "k"},
		PlanCacheSize: planCache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	for _, table := range buy {
		if _, err := c.Query("SELECT COUNT(*) FROM " + table); err != nil {
			t.Fatal(err)
		}
	}
	return c, w
}

// fullFront is the front end without a statement cache: Parse and Bind.
func fullFront(c *Client, sql string) (*core.BoundQuery, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, stageErr(StageParse, err)
	}
	b, err := core.Bind(q, c.cat)
	if err != nil {
		return nil, stageErr(StageBind, err)
	}
	return b, nil
}

// cachedStatement returns the statement cache's entry for sql's skeleton,
// or nil, without looking at its plan.
func cachedStatement(cache *core.PlanCache, sql string) *core.Statement {
	skel, _, err := sqlparse.Scan(sql, nil, nil)
	if err != nil {
		return nil
	}
	return cache.Lookup(skel)
}

// checkFront compiles sql through the client's statement cache and checks
// the front end against the full path: the bound query deep-equals
// Bind(Parse(sql)) and the entry returned is the one cached under its
// skeleton, or both fail alike.
func checkFront(t *testing.T, c *Client, sql string) *core.BoundQuery {
	t.Helper()
	got, st, err := c.front(sql, nil, nil, nil)
	want, wantErr := fullFront(c, sql)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: front error %v, full path %v", sql, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) || st == nil || st != cachedStatement(c.plans, sql) {
		t.Fatalf("%s: front bound\n%+v\nentry %p; full path\n%+v\ncached entry %p", sql, got, st, want, cachedStatement(c.plans, sql))
	}
	return got
}

// checkTemplates runs 200 instances of every template through the
// statement cache: every front-end result equals the full path's, every
// instance after a skeleton's first is a hit, and the plan it compiles to
// and its Explain text equal those the full path's binding gets from the
// same plan cache.
func checkTemplates(t *testing.T, c *Client, templates []workload.Template) {
	for _, tpl := range templates {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 200; i++ {
			sql := tpl.Instantiate(rng)
			if i > 0 && cachedStatement(c.plans, sql) == nil {
				t.Fatalf("%s %s: a fixed-format template missed the statement cache", tpl.Name, sql)
			}
			b := checkFront(t, c, sql)
			plan, opts, err := c.compile(sql, nil, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			var want *core.Plan
			if plan.Planner == core.PlannerCached {
				cp := cachedStatement(c.plans, sql).Plan(nil)
				want, _ = cp.Instantiate(b, c.store, &opts)
			} else {
				opt := core.Optimizer{Catalog: c.cat, Store: c.store, Stats: c.stats, Options: opts}
				if want, err = opt.Optimize(b); err != nil {
					t.Fatal(err)
				}
			}
			if want == nil || plan.String() != want.String() {
				t.Fatalf("%s: plan %s, full path %v", sql, plan, want)
			}
			res, err := c.Explain(sql, Verbose())
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan != want.String() || (plan.Planner == core.PlannerCached && res.PlanDetail != want.Describe()) {
				t.Fatalf("%s: Explain\n%s\n%s\nfull path\n%s\n%s", sql, res.Plan, res.PlanDetail, want, want.Describe())
			}
		}
	}
}

func TestStatementCacheDifferential(t *testing.T) {
	t.Run("whw", func(t *testing.T) {
		c, w := whwClient(t, 256, "Station")
		checkTemplates(t, c, w.Templates())
	})
	t.Run("tpch", func(t *testing.T) {
		c, d := tpchClient(t, 256, "Customer")
		checkTemplates(t, c, d.Templates())
	})
}

// TestStatementHitErrorParity: statements that hit a cached skeleton with
// literals the full path rejects, or that match nothing, answer exactly as
// a client without a cache does: an integer overflow, a categorical literal
// outside the domain, an IN list that matches nothing, an empty range and
// a negative LIMIT.
func TestStatementHitErrorParity(t *testing.T) {
	cached, _ := whwClient(t, 256)
	plain, _ := whwClient(t, 0)
	for _, fam := range [][]string{
		{
			"SELECT * FROM Weather WHERE Weather.Country = 'Country01' AND Weather.Date >= 20140601 AND Weather.Date <= 20140601",
			"SELECT * FROM Weather WHERE Weather.Country = 'Country01' AND Weather.Date >= 99999999999999999999 AND Weather.Date <= 20140601",
			"SELECT * FROM Weather WHERE Weather.Country = 'Atlantis' AND Weather.Date >= 20140601 AND Weather.Date <= 20140601",
			"SELECT * FROM Weather WHERE Weather.Country = 'Country01' AND Weather.Date >= 20140605 AND Weather.Date <= 20140601",
		},
		{
			"SELECT Temperature FROM Weather WHERE Weather.Country IN ('Country01', 'Country02') AND Weather.Date = 20140601 LIMIT 5",
			"SELECT Temperature FROM Weather WHERE Weather.Country IN ('Atlantis', 'Mu') AND Weather.Date = 20140601 LIMIT 5",
			"SELECT Temperature FROM Weather WHERE Weather.Country IN ('Country01', 'Country02') AND Weather.Date = 20140601 LIMIT -5",
		},
	} {
		for i, sql := range fam {
			if _, _, err := sqlparse.Scan(sql, nil, nil); i > 0 && err == nil && cachedStatement(cached.plans, sql) == nil {
				t.Fatalf("%s: not a statement-cache hit", sql)
			}
			got, err := cached.Query(sql)
			want, wantErr := plain.Query(sql)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: cached client error %v, plain client %v", sql, err, wantErr)
			}
			if err == nil && (!reflect.DeepEqual(got.Rows, want.Rows) || got.Report.Transactions != want.Report.Transactions) {
				t.Fatalf("%s: cached client %d rows for %d tx, plain client %d rows for %d tx",
					sql, len(got.Rows), got.Report.Transactions, len(want.Rows), want.Report.Transactions)
			}
		}
	}
}

// TestStatementCacheConcurrentHits: goroutines hitting one statement entry
// with their own literals each get what the full path binds. Run under
// -race, it also checks that instances share the entry read-only.
func TestStatementCacheConcurrentHits(t *testing.T) {
	c, w := whwClient(t, 256)
	tpl := w.Templates()[3]
	checkFront(t, c, tpl.Instantiate(rand.New(rand.NewSource(1))))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				sql := tpl.Instantiate(rng)
				got, _, err := c.front(sql, nil, nil, nil)
				want, wantErr := fullFront(c, sql)
				if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: hit (%v) differs from the full path (%v)", sql, err, wantErr)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestStatementHitAllocations gates what a statement-cache hit allocates
// through Client.Query on a covered store: each run is another instance of
// a cached skeleton, so the hit binds new literals. Parsing and binding
// every request in full cost WHW Q1 82 allocations and TPC-H T3 197 (with
// the SELECT * copy and the per-request qualified schemas); a hit costs 29
// and 91. The race detector adds allocations of its own, so the gate runs
// only without it.
func TestStatementHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	whw, w := whwClient(t, 256, "Weather")
	tpch, d := tpchClient(t, 256, "Customer", "Orders")
	for _, g := range []struct {
		name   string
		c      *Client
		tpl    workload.Template
		pinned float64
	}{
		{"WHW Q1", whw, w.Templates()[0], 34},
		{"TPC-H T3", tpch, d.Templates()[2], 104},
	} {
		rng := rand.New(rand.NewSource(5))
		sqls := make([]string, 16)
		for i := range sqls {
			sqls[i] = g.tpl.Instantiate(rng)
			if res, err := g.c.Query(sqls[i]); err != nil || res.Report.Transactions != 0 {
				t.Fatalf("%s: %v; want a covered answer", sqls[i], err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(64, func() {
			if _, err := g.c.Query(sqls[i%len(sqls)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %v allocations per covered hit", g.name, allocs)
		if allocs > g.pinned {
			t.Errorf("%s: %v allocations per covered hit, pinned at %v", g.name, allocs, g.pinned)
		}
	}
}

// resubstitute replaces every literal of src, which Scan accepts, by a
// random one of the same kind.
func resubstitute(src string, rng *rand.Rand) string {
	_, lits, err := sqlparse.Scan(src, nil, nil)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	at := 0
	for _, lit := range lits {
		b.WriteString(src[at:lit.Pos])
		if src[lit.Pos] == '-' && lit.Pos > 0 {
			b.WriteByte(' ') // "WHERE-1" must not become the identifier "WHERE1"
		}
		at = lit.Pos + len(lit.Text)
		switch {
		case src[lit.Pos] == '\'':
			at = lit.Pos + 1
			for src[at] != '\'' || at+1 < len(src) && src[at+1] == '\'' {
				if src[at] == '\'' {
					at++ // the first of an escaped pair
				}
				at++
			}
			at++ // the closing quote
			s := []string{"", "United States", "Country01", "it's", "Atlantis"}[rng.Intn(5)]
			b.WriteString("'" + strings.ReplaceAll(s, "'", "''") + "'")
		case strings.Contains(lit.Text, "."):
			fmt.Fprintf(&b, "%d.%d", rng.Intn(201)-100, rng.Intn(10))
		default:
			fmt.Fprint(&b, []int64{0, 1, -1, 20140610, 20140701, 42, -7}[rng.Intn(7)])
		}
	}
	b.WriteString(src[at:])
	return b.String()
}

// FuzzStatementCache: for any statement, the front end through the
// statement cache answers as the full path does; once a statement has
// compiled, another with the same tokens but other literals of the same
// kinds hits and still answers as the full path does; and a statement the
// full path rejects never creates an entry.
func FuzzStatementCache(f *testing.F) {
	seeds := []string{
		"SELECT * FROM Weather WHERE Weather.Country = 'United States' AND Weather.Date >= 20140601 AND Weather.Date <= 20140614",
		"SELECT COUNT(ZipCode) FROM Pollution WHERE Pollution.Rank >= 3 AND Pollution.Rank <= 40",
		"SELECT Temperature FROM Station, Weather, ZipMap WHERE Station.Country = Weather.Country = 'United States' AND ZipMap.ZipCode = '98101' AND Station.StationID = Weather.StationID AND Station.City = ZipMap.City",
		"SELECT City, AVG(Temperature) AS t FROM Station S, Weather W WHERE S.StationID = W.StationID AND W.Date >= 20140602 GROUP BY City HAVING t > 1.5 ORDER BY City DESC LIMIT 3",
		"SELECT * FROM Weather WHERE (Country = 'Country01' OR Country = 'x') AND Date IN (20140601, 20140602)",
		"SELECT DISTINCT City FROM Station WHERE Country = 'it''s' LIMIT -1",
		"SELECT * FROM Weather WHERE Date >= 99999999999999999999",
		"SELECT * FROM Nowhere WHERE a = 1",
	}
	for _, s := range seeds {
		f.Add(s, int64(1))
	}
	c, _ := whwClient(f, 64)
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		_, _, scanErr := sqlparse.Scan(src, nil, nil)
		had := cachedStatement(c.plans, src) != nil
		if checkFront(t, c, src) == nil {
			if !had && cachedStatement(c.plans, src) != nil {
				t.Fatalf("%s: rejected, yet its skeleton now has an entry", src)
			}
			return
		}
		if scanErr != nil {
			t.Fatalf("%s: compiled, but Scan refused it: %v", src, scanErr)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			checkFront(t, c, resubstitute(src, rng))
		}
	})
}

// TestInstanceNamesItsOwnAliases: two spellings of one statement's aliases
// are two skeletons, so two cache entries, and a plan-cache hit on each
// prints its plan line with its own aliases.
func TestInstanceNamesItsOwnAliases(t *testing.T) {
	c, _ := whwClient(t, 256)
	entries := map[*core.Statement]bool{}
	for _, alias := range [][2]string{{"S", "W"}, {"s", "w"}} {
		var sql string
		for i, day := range []int{20140601, 20140605} {
			sql = fmt.Sprintf("SELECT * FROM Station %[1]s, Weather %[2]s WHERE %[1]s.StationID = %[2]s.StationID AND %[2]s.Country = 'Country01' AND %[2]s.Date = %[3]d",
				alias[0], alias[1], day)
			plan, _, err := c.compile(sql, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if hit := plan.Planner == core.PlannerCached; hit != (i > 0) {
				t.Fatalf("%s: planner %s", sql, plan.Planner)
			}
			own := (&core.Plan{Bound: plan.Bound, Steps: plan.Steps, EstTrans: plan.EstTrans}).String()
			if plan.String() != own || !strings.Contains(own, alias[1]+"(") {
				t.Errorf("%s: plan line %q, its own aliases render %q", sql, plan.String(), own)
			}
		}
		entries[cachedStatement(c.plans, sql)] = true
	}
	if len(entries) != 2 {
		t.Errorf("two alias spellings share %d entries, want 2", len(entries))
	}
}

// TestPlanCacheCountsOneLookupPerCompile: a statement that compiles counts
// one plan lookup, a hit or a miss; one that fails to parse or bind, on a
// hit's literals too, counts none, and neither does one under a Window
// consistency, which reuses no plan.
func TestPlanCacheCountsOneLookupPerCompile(t *testing.T) {
	c, _ := whwClient(t, 256)
	const q = "SELECT Temperature FROM Weather WHERE Weather.Country = 'Country01' AND Weather.Date = %d LIMIT %d"
	lookups := func() (int64, int64) {
		m := c.Metrics()
		return m.PlanCacheHits, m.PlanCacheMisses
	}
	for i, step := range []struct {
		sql          string
		hits, misses int64
	}{
		{fmt.Sprintf(q, 20140601, 5), 0, 1},
		{fmt.Sprintf(q, 20140602, 5), 1, 1},
		{fmt.Sprintf(q, 20140602, -5), 1, 1},
		{"SELECT * FROM Nowhere WHERE a = 1", 1, 1},
		{"SELECT Nothing FROM Weather WHERE Weather.Date = 20140601", 1, 1},
	} {
		c.Explain(step.sql)
		if hits, misses := lookups(); hits != step.hits || misses != step.misses {
			t.Fatalf("step %d, %s: %d hits, %d misses; want %d, %d", i, step.sql, hits, misses, step.hits, step.misses)
		}
	}
	c.cfg.Consistency = Window(time.Hour)
	res, err := c.Explain(fmt.Sprintf(q, 20140603, 5))
	if hits, misses := lookups(); err != nil || res.Planner == core.PlannerCached || hits != 1 || misses != 1 {
		t.Fatalf("under Window: %v, planner %s, %d hits, %d misses", err, res.Planner, hits, misses)
	}
}

// TestConcurrentMissesPlanOnce: compiles of one new skeleton that all miss
// its plan slot together run the optimizer once. The first optimizer run is
// held until a second compile has missed, so without the slot's planning
// lock both would plan; with it, every later miss instantiates the plan the
// first one stored.
func TestConcurrentMissesPlanOnce(t *testing.T) {
	c, w := whwClient(t, 256)
	const n = 4
	var first sync.Once
	c.beforeOptimize = func() {
		first.Do(func() {
			for deadline := time.Now().Add(10 * time.Second); c.Metrics().PlanCacheMisses < 2 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		})
	}
	plans := make([]string, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Explain(fmt.Sprintf("SELECT Temperature FROM Weather WHERE Weather.Country = 'Country01' AND Weather.Date = %d", w.Dates[i]))
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = res.Plan
		}()
	}
	wg.Wait()
	m := c.Metrics()
	if m.PlansDP != 1 || m.PlansCached != n-1 || m.PlanCacheHits+m.PlanCacheMisses != n {
		t.Fatalf("%d compiles: %d DP runs, %d cached plans, %d lookups; want 1, %d, %d",
			n, m.PlansDP, m.PlansCached, m.PlanCacheHits+m.PlanCacheMisses, n-1, n)
	}
	for i, p := range plans {
		if p != plans[0] {
			t.Errorf("compile %d planned %q, compile 0 %q", i, p, plans[0])
		}
	}
}
