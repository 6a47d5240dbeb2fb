package payless_test

// Benchmarks for the experiments that are not the paper's Figs. 10–15
// (those are cmd/paylessbench's; DESIGN.md §3 has the experiment index):
// the worked example of Fig. 1 (E1), optimization and end-to-end latency
// (E13), and the TPC-H bind join. Each reports its headline quantities as
// custom metrics:
//
//	go test -run xxx -bench . -benchmem .

import (
	"fmt"
	"testing"

	payless "payless"

	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// warmClient opens a client over the default WHW market and runs the query
// sql(w) returns once, so the semantic store holds what it bought.
func warmClient(b *testing.B, sql func(w *workload.WHW) string) (*payless.Client, string) {
	w := workload.GenerateWHW(workload.DefaultWHWConfig())
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		b.Fatal(err)
	}
	m.RegisterAccount("k")
	client, err := payless.Open(payless.Config{
		Tables: append(m.ExportCatalog(), w.ZipMap),
		Caller: market.AccountCaller{Market: m, Key: "k"},
	})
	if err != nil {
		b.Fatal(err)
	}
	client.LoadLocal("ZipMap", w.ZipMapRows)
	q := sql(w)
	if _, err := client.Query(q); err != nil {
		b.Fatal(err)
	}
	return client, q
}

// BenchmarkFig1PlanExample is experiment E1: the worked example of Fig. 1 —
// the bind-join plan (P2) must cost a small fraction of the country-wide
// scan plan (P1).
func BenchmarkFig1PlanExample(b *testing.B) {
	cfg := workload.WHWConfig{
		Seed: 1, Countries: 6, StationsPerCountry: 60, CitiesPerCountry: 10,
		Days: 30, StartDate: 20140601, Zips: 100, MaxRank: 100,
	}
	var p1, p2 int64
	for i := 0; i < b.N; i++ {
		w := workload.GenerateWHW(cfg)
		m := market.New()
		if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
			b.Fatal(err)
		}
		m.RegisterAccount("p1")
		m.RegisterAccount("p2")
		sql := fmt.Sprintf("SELECT Temperature FROM Station, Weather "+
			"WHERE City = 'Seattle' AND Station.Country = Weather.Country = 'United States' "+
			"AND Date >= %d AND Date <= %d AND Station.StationID = Weather.StationID",
			w.Dates[0], w.Dates[len(w.Dates)-1])
		tables := append(m.ExportCatalog(), w.ZipMap)

		// P1: the minimizing-calls plan.
		mc, err := payless.Open(payless.Config{Tables: tables, Caller: market.AccountCaller{Market: m, Key: "p1"}, MinimizeCalls: true})
		if err != nil {
			b.Fatal(err)
		}
		mc.LoadLocal("ZipMap", w.ZipMapRows)
		r1, err := mc.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		// P2: PayLess's bind-join plan.
		pl, err := payless.Open(payless.Config{Tables: tables, Caller: market.AccountCaller{Market: m, Key: "p2"}})
		if err != nil {
			b.Fatal(err)
		}
		pl.LoadLocal("ZipMap", w.ZipMapRows)
		r2, err := pl.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		p1, p2 = r1.Report.Transactions, r2.Report.Transactions
	}
	b.ReportMetric(float64(p1), "P1_trans")
	b.ReportMetric(float64(p2), "P2_trans")
	if p2 >= p1 {
		b.Fatalf("P2 (%d) must beat P1 (%d)", p2, p1)
	}
}

// BenchmarkOptimizeLatency is experiment E13 (§5 "Efficiency"): the paper
// reports that optimization finishes within milliseconds; this measures
// per-query optimization time directly.
func BenchmarkOptimizeLatency(b *testing.B) {
	// The warm semantic store makes optimization see stored boxes.
	client, sql := warmClient(b, func(w *workload.WHW) string {
		return fmt.Sprintf(
			"SELECT City, AVG(Temperature) FROM Station, Weather "+
				"WHERE Station.Country = Weather.Country = 'United States' AND Weather.Date >= %d AND Weather.Date <= %d "+
				"AND Station.StationID = Weather.StationID GROUP BY City",
			w.Dates[0], w.Dates[10])
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Explain(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEndToEnd measures whole-query latency (optimize + execute +
// local DBMS) on a warm semantic store.
func BenchmarkQueryEndToEnd(b *testing.B) {
	client, sql := warmClient(b, func(w *workload.WHW) string {
		return fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
			w.Dates[0], w.Dates[10])
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPCHBindJoin exercises the bind-join access path on TPC-H-shaped
// data: a selective Supplier predicate feeds SuppKey bindings into Lineitem,
// which must beat the Lineitem scan by roughly the selectivity ratio.
func BenchmarkTPCHBindJoin(b *testing.B) {
	var bind, scan int64
	for i := 0; i < b.N; i++ {
		d := workload.GenerateTPCH(workload.TPCHConfig{Seed: 2, ScaleFactor: 1})
		m := market.New()
		if err := d.Install(m, storage.NewDB(), 100, 1); err != nil {
			b.Fatal(err)
		}
		sql := "SELECT COUNT(*) FROM Supplier, Lineitem " +
			"WHERE Supplier.NationKey = 7 AND Supplier.SuppKey = Lineitem.SuppKey " +
			"AND Lineitem.ShipDate >= 100 AND Lineitem.ShipDate <= 400"
		run := func(key string, minCalls bool) int64 {
			m.RegisterAccount(key)
			c, err := payless.Open(payless.Config{
				Tables:        append(m.ExportCatalog(), d.Nation, d.Region),
				Caller:        market.AccountCaller{Market: m, Key: key},
				MinimizeCalls: minCalls,
			})
			if err != nil {
				b.Fatal(err)
			}
			c.LoadLocal("Nation", d.NationRows)
			c.LoadLocal("Region", d.RegionRows)
			res, err := c.Query(sql)
			if err != nil {
				b.Fatal(err)
			}
			return res.Report.Transactions
		}
		bind = run("bind", false)
		scan = run("scan", true)
	}
	b.ReportMetric(float64(bind), "payless_trans")
	b.ReportMetric(float64(scan), "mincalls_trans")
	if bind > scan {
		b.Fatalf("bind-join plan (%d) must not exceed the scan plan (%d)", bind, scan)
	}
}
