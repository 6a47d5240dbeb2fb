package payless

import (
	"math/rand"
	"testing"

	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// newWHWOracleEnv builds a small WHW market (paper Table 1 templates).
func newWHWOracleEnv(t *testing.T) (*market.Market, func(key string, mutate func(*Config)) *Client, []workload.Template) {
	t.Helper()
	cfg := workload.WHWConfig{
		Seed: 41, Countries: 4, StationsPerCountry: 12, CitiesPerCountry: 4,
		Days: 20, StartDate: 20140601, Zips: 60, MaxRank: 100,
	}
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	open := func(key string, mutate func(*Config)) *Client {
		m.RegisterAccount(key)
		ccfg := Config{
			Tables: append(m.ExportCatalog(), w.ZipMap),
			Caller: market.AccountCaller{Market: m, Key: key},
		}
		if mutate != nil {
			mutate(&ccfg)
		}
		c, err := Open(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
			t.Fatal(err)
		}
		return c
	}
	return m, open, w.Templates()
}

// newTPCHOracleEnv builds a small TPC-H market (Q3/Q5/Q6-shaped templates).
func newTPCHOracleEnv(t *testing.T) (*market.Market, func(key string, mutate func(*Config)) *Client, []workload.Template) {
	t.Helper()
	d := workload.GenerateTPCH(workload.TPCHConfig{Seed: 43, ScaleFactor: 0.2, Zipf: 1})
	m := market.New()
	if err := d.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	open := func(key string, mutate func(*Config)) *Client {
		m.RegisterAccount(key)
		ccfg := Config{
			Tables: append(m.ExportCatalog(), d.Nation, d.Region),
			Caller: market.AccountCaller{Market: m, Key: key},
		}
		if mutate != nil {
			mutate(&ccfg)
		}
		c, err := Open(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadLocal("Nation", d.NationRows); err != nil {
			t.Fatal(err)
		}
		if err := c.LoadLocal("Region", d.RegionRows); err != nil {
			t.Fatal(err)
		}
		return c
	}
	return m, open, d.Templates()
}

// TestSpendParityOracle is the plan-cache spend oracle: the same workload
// runs two ways against one market — the DP on every query, and a
// plan-cached client — and the cached client must return byte-identical rows
// and bill exactly what the DP does, query by query. Re-running the whole
// workload must cost both systems exactly the same (everything is covered by
// then), and by the third pass the cached system must actually serve from the
// cache.
func TestSpendParityOracle(t *testing.T) {
	envs := []struct {
		name  string
		setup func(t *testing.T) (*market.Market, func(string, func(*Config)) *Client, []workload.Template)
	}{
		{"whw", newWHWOracleEnv},
		{"tpch", newTPCHOracleEnv},
	}
	for _, env := range envs {
		t.Run(env.name, func(t *testing.T) {
			_, open, templates := env.setup(t)
			dp := open("parity-dp", nil)
			cached := open("parity-cached", func(c *Config) { c.PlanCacheSize = 256 })

			// The instance list: a few draws of every template, in a fixed
			// order shared by both systems and all passes.
			rng := rand.New(rand.NewSource(7))
			var queries []string
			for _, tpl := range templates {
				for i := 0; i < 3; i++ {
					queries = append(queries, tpl.Instantiate(rng))
				}
			}

			cacheHits := 0
			for pass := 1; pass <= 3; pass++ {
				var dpTx, cachedTx int64
				for qi, sql := range queries {
					want, err := dp.Query(sql)
					if err != nil {
						t.Fatalf("pass %d dp query %d: %v\n%s", pass, qi, err, sql)
					}
					wantRows := canon(want.Rows)
					dpTx += want.Report.Transactions

					cres, err := cached.Query(sql)
					if err != nil {
						t.Fatalf("pass %d cached query %d: %v\n%s", pass, qi, err, sql)
					}
					if canon(cres.Rows) != wantRows {
						t.Fatalf("pass %d query %d: cached rows diverge from dp\n%s", pass, qi, sql)
					}
					if pass == 3 && cres.Planner == PlannerCached {
						cacheHits++
					}
					cachedTx += cres.Report.Transactions
					// A cache hit replays the very plan DP produced, so the
					// cached system must bill exactly what the DP system does —
					// per query, not just in aggregate.
					if cres.Report.Transactions != want.Report.Transactions {
						t.Errorf("pass %d query %d: cached billed %d, dp billed %d\n%s",
							pass, qi, cres.Report.Transactions, want.Report.Transactions, sql)
					}
				}
				// Aggregate re-runs are exact: once pass 1 has populated each
				// system's semantic store, replays are fully covered and every
				// system settles on the same (zero-price) spend.
				if pass > 1 && cachedTx != dpTx {
					t.Errorf("pass %d aggregate spend diverges: dp=%d cached=%d", pass, dpTx, cachedTx)
				}
				t.Logf("pass %d: dp=%d cached=%d transactions", pass, dpTx, cachedTx)
			}
			if cacheHits < len(queries)/2 {
				t.Errorf("pass 3 served only %d/%d queries from the plan cache", cacheHits, len(queries))
			}
			t.Logf("pass-3 cache hits: %d/%d", cacheHits, len(queries))

			// The money trail must agree with the per-query reports.
			if st := cached.Metrics(); st.PlanCacheHits == 0 {
				t.Errorf("plan cache reports zero hits (%d misses)", st.PlanCacheMisses)
			}
		})
	}
}
