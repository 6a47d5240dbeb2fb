package payless_test

// Benchmark harness: one testing.B target per evaluation artifact of the
// paper (see DESIGN.md §3 for the experiment index). Each benchmark replays
// the experiment once per iteration and reports the figure's headline
// quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the same series the paper plots. Scales are reduced from the
// paper's (documented in DESIGN.md §2); the shapes — which system wins, by
// roughly what factor, where the crossover to Download All falls — are the
// reproduction targets recorded in EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	payless "payless"

	"payless/internal/bench"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// benchParams is the shared reduced scale for benchmark runs.
func benchParams() bench.Params {
	p := bench.DefaultParams()
	p.QReal = 30
	p.QTPCH = 8
	p.SampleEvery = 25
	return p
}

func finalY(s bench.Series) int64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// reportSeries publishes each system's final cumulative transactions.
func reportSeries(b *testing.B, fig interface{ Render() string }, series []bench.Series) {
	for _, s := range series {
		b.ReportMetric(float64(finalY(s)), sanitizeMetric(s.System)+"_trans")
	}
	if testing.Verbose() {
		b.Log("\n" + fig.Render())
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '=':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
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

func runFig10(b *testing.B, dataset string) {
	p := benchParams()
	var fig *bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = bench.Fig10(p, dataset)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig, fig.Series)
}

// BenchmarkFig10RealData is experiment E3 (Fig. 10a).
func BenchmarkFig10RealData(b *testing.B) { runFig10(b, "real") }

// BenchmarkFig10TPCH is experiment E4 (Fig. 10b).
func BenchmarkFig10TPCH(b *testing.B) { runFig10(b, "tpch") }

// BenchmarkFig10TPCHSkew is experiment E5 (Fig. 10c).
func BenchmarkFig10TPCHSkew(b *testing.B) { runFig10(b, "tpch-skew") }

func runFig11(b *testing.B, dataset string) {
	p := benchParams()
	var fig *bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = bench.Fig11(p, dataset, []int{50, 100, 500})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig, fig.Series)
}

// BenchmarkFig11VaryTReal is experiment E6 (Fig. 11a).
func BenchmarkFig11VaryTReal(b *testing.B) { runFig11(b, "real") }

// BenchmarkFig11VaryTTPCH is experiment E6 (Fig. 11b).
func BenchmarkFig11VaryTTPCH(b *testing.B) { runFig11(b, "tpch") }

// BenchmarkFig11VaryTTPCHSkew is experiment E6 (Fig. 11c).
func BenchmarkFig11VaryTTPCHSkew(b *testing.B) { runFig11(b, "tpch-skew") }

// BenchmarkFig12RealQ is experiment E7 (Fig. 12a–c): q ∈ {10, 20, 30} at
// harness scale (the paper uses {100, 200, 300}).
func BenchmarkFig12RealQ(b *testing.B) {
	p := benchParams()
	var fig *bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = bench.Fig12(p, "real", []int{10, 20, 30})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig, fig.Series)
}

// BenchmarkFig12TPCHQ is experiment E8 (Fig. 12d–f): q ∈ {5, 10, 20}.
func BenchmarkFig12TPCHQ(b *testing.B) {
	p := benchParams()
	var fig *bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = bench.Fig12(p, "tpch", []int{5, 10, 20})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig, fig.Series)
}

func runFig13(b *testing.B, dataset string) {
	p := benchParams()
	var fig *bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = bench.Fig13(p, dataset, []float64{0.5, 1, 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig, fig.Series)
}

// BenchmarkFig13DataSizeTPCH is experiment E9 (Fig. 13a).
func BenchmarkFig13DataSizeTPCH(b *testing.B) { runFig13(b, "tpch") }

// BenchmarkFig13DataSizeTPCHSkew is experiment E9 (Fig. 13b).
func BenchmarkFig13DataSizeTPCHSkew(b *testing.B) { runFig13(b, "tpch-skew") }

func runFig14(b *testing.B, dataset string) {
	p := benchParams()
	if dataset != "real" {
		p.QTPCH = 5
	}
	var fig *bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = bench.Fig14(p, dataset)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range fig.Efforts {
		b.ReportMetric(e.AvgPlans, sanitizeMetric(e.System)+"_plans")
	}
	if testing.Verbose() {
		b.Log("\n" + fig.Render())
	}
}

// BenchmarkFig14SearchSpaceReal is experiment E10 (Fig. 14a).
func BenchmarkFig14SearchSpaceReal(b *testing.B) { runFig14(b, "real") }

// BenchmarkFig14SearchSpaceTPCH is experiment E10 (Fig. 14b).
func BenchmarkFig14SearchSpaceTPCH(b *testing.B) { runFig14(b, "tpch") }

// BenchmarkFig14SearchSpaceTPCHSkew is experiment E10 (Fig. 14c).
func BenchmarkFig14SearchSpaceTPCHSkew(b *testing.B) { runFig14(b, "tpch-skew") }

func runFig15(b *testing.B, dataset string) {
	p := benchParams()
	var fig *bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = bench.Fig15(p, dataset)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range fig.Efforts {
		b.ReportMetric(e.AvgKeptBoxes, sanitizeMetric(e.System)+"_boxes")
	}
	if testing.Verbose() {
		b.Log("\n" + fig.Render())
	}
}

// BenchmarkFig15BoundingBoxReal is experiment E11 (Fig. 15a).
func BenchmarkFig15BoundingBoxReal(b *testing.B) { runFig15(b, "real") }

// BenchmarkFig15BoundingBoxTPCH is experiment E11 (Fig. 15b).
func BenchmarkFig15BoundingBoxTPCH(b *testing.B) { runFig15(b, "tpch") }

// BenchmarkFig15BoundingBoxTPCHSkew is experiment E11 (Fig. 15c).
func BenchmarkFig15BoundingBoxTPCHSkew(b *testing.B) { runFig15(b, "tpch-skew") }

// BenchmarkOptimizeLatency is experiment E13 (§5 "Efficiency"): the paper
// reports that optimization finishes within milliseconds; this measures
// per-query optimization time directly.
func BenchmarkOptimizeLatency(b *testing.B) {
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
	sql := fmt.Sprintf(
		"SELECT City, AVG(Temperature) FROM Station, Weather "+
			"WHERE Station.Country = Weather.Country = 'United States' AND Weather.Date >= %d AND Weather.Date <= %d "+
			"AND Station.StationID = Weather.StationID GROUP BY City",
		w.Dates[0], w.Dates[10])
	// Warm the semantic store so optimization sees stored boxes.
	if _, err := client.Query(sql); err != nil {
		b.Fatal(err)
	}
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
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[10])
	if _, err := client.Query(sql); err != nil {
		b.Fatal(err)
	}
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
