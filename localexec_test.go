package payless

import (
	"math/rand"
	"testing"

	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// TestCoveredQueryAllocations pins what one fully covered TPC-H T3 (a
// four-relation join under a GROUP BY, over a store that owns every table)
// allocates through Client.Query with the plan cache on, as paylessd runs it.
// Allocation counts are deterministic where wall-clock ratios are not: this
// is the regression guard on the local executor — string keys or per-row
// join output put this query above 10 000 — and the timing itself is
// benchmarks/run.sh's business.
func TestCoveredQueryAllocations(t *testing.T) {
	d := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	m := market.New()
	if err := d.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("k")
	c, err := Open(Config{
		Tables:        append(m.ExportCatalog(), d.Nation, d.Region),
		Caller:        market.AccountCaller{Market: m, Key: "k"},
		PlanCacheSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadLocal("Nation", d.NationRows); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadLocal("Region", d.RegionRows); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"Customer", "Orders"} {
		if _, err := c.Query("SELECT COUNT(*) FROM " + table); err != nil {
			t.Fatal(err)
		}
	}
	sql := d.Templates()[2].Instantiate(rand.New(rand.NewSource(3)))
	res, err := c.Query(sql) // also compiles the plan template
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Transactions != 0 || len(res.Rows) == 0 {
		t.Fatalf("%s: billed %d transactions for %d rows, want a covered, non-empty answer", sql, res.Report.Transactions, len(res.Rows))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Query(sql); err != nil {
			t.Fatal(err)
		}
	})
	const pinned = 400
	if allocs > pinned {
		t.Errorf("covered T3: %v allocations per query, pinned at %d", allocs, pinned)
	}
	t.Logf("covered T3: %v allocations per query", allocs)
}
