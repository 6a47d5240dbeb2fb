package payless

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// TestCoveredQueryAllocations pins what fully covered TPC-H queries
// allocate through Client.Query with the plan cache on, as paylessd runs
// them: allocations and bytes per query. Allocation counts are deterministic
// where wall-clock ratios are not: this is the regression guard on the local
// executor, and the timing itself is benchmarks/run.sh's business. A join
// writes the row ids of its pairs into a pooled arena, so T3 (four
// relations under a GROUP BY), T4 (three under a COUNT(*)) and T5 (three,
// grouped) allocate a few KB however many rows they join; a row copied per
// joined pair would cost tens of KB. T1 (one relation under an aggregate)
// streams the store's rows into the aggregator, and T5 reads the join
// through ids, so each allocates the same at a narrow and a wide range.
// The pins are the counts read when they were last tightened.
func TestCoveredQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations and drops pooled arenas")
	}
	c, d := tpchClient(t, 256, "Customer", "Orders", "Lineitem", "Part", "Supplier", "PartSupp")
	t.Run("T1", func(t *testing.T) {
		const t1 = "SELECT COUNT(*), SUM(ExtendedPrice) FROM Lineitem WHERE ShipDate >= %d AND ShipDate <= %d AND Discount >= 0 AND Discount <= %d AND Quantity <= 50"
		coveredAllocationsFlat(t, c, 31, fmt.Sprintf(t1, 1000, 1000, 10), fmt.Sprintf(t1, 1, 2000, 9))
	})
	for _, g := range []struct {
		name   string
		tpl    int
		allocs float64
		bytes  uint64
	}{
		{"T3", 2, 54, 6 << 10},
		{"T4", 3, 40, 13 << 8},
		{"T5", 4, 45, 7 << 10},
	} {
		t.Run(g.name, func(t *testing.T) {
			sql := d.Templates()[g.tpl].Instantiate(rand.New(rand.NewSource(3)))
			_, allocs, bytes := coveredAllocations(t, c, sql)
			if allocs > g.allocs {
				t.Errorf("covered %s: %v allocations per query, pinned at %v", g.name, allocs, g.allocs)
			}
			if bytes > g.bytes {
				t.Errorf("covered %s: %d bytes per query, pinned at %d", g.name, bytes, g.bytes)
			}
			t.Logf("covered %s: %v allocations, %d bytes per query", g.name, allocs, bytes)
		})
	}
	t.Run("T5Flat", func(t *testing.T) {
		const t5 = "SELECT NName, COUNT(*) FROM Customer, Orders, Nation WHERE Customer.CustKey = Orders.CustKey AND Customer.NationKey = Nation.NationKey AND Orders.OrderDate >= %d AND Orders.OrderDate <= %d GROUP BY NName"
		coveredAllocationsFlat(t, c, 45, fmt.Sprintf(t5, 1000, 1080), fmt.Sprintf(t5, 1, 2400))
	})
}

// coveredAllocations runs sql over a covered store, requiring a non-empty
// answer and no bill, and measures its allocations and bytes per query.
func coveredAllocations(t *testing.T, c *Client, sql string) (res *Result, allocs float64, bytes uint64) {
	res, err := c.Query(sql) // also compiles the plan template
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Transactions != 0 || len(res.Rows) == 0 {
		t.Fatalf("%s: billed %d transactions for %d rows, want a covered, non-empty answer", sql, res.Report.Transactions, len(res.Rows))
	}
	const runs = 20
	query := func() {
		if _, err := c.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun runs on one P, whose pooled arena the first pass sizes
	// for sql; the second pass, warm-up run included, measures the bytes.
	allocs = testing.AllocsPerRun(runs, query)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	testing.AllocsPerRun(runs, query)
	runtime.ReadMemStats(&after)
	return res, allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up run
}

// coveredAllocationsFlat runs a narrow and a wide instance of one statement,
// whose first output column counts the rows read, and requires the same
// allocations of both, at most pin, and bytes apart by no more than 1 KB, though the wide
// one reads at least ten times the rows: a row list of the wide read's rows
// alone would be tens of KB. Both restrict the table they read, so each
// builds one selection.
func coveredAllocationsFlat(t *testing.T, c *Client, pin float64, narrow, wide string) {
	var rows [2]int64
	var allocs [2]float64
	var bytes [2]uint64
	for i, sql := range []string{narrow, wide} {
		res, a, b := coveredAllocations(t, c, sql)
		for _, r := range res.Rows {
			n, err := strconv.ParseInt(r[len(r)-1], 10, 64)
			if err != nil {
				n, err = strconv.ParseInt(r[0], 10, 64)
			}
			if err != nil {
				t.Fatal(err)
			}
			rows[i] += n
		}
		allocs[i], bytes[i] = a, b
	}
	if rows[0] == 0 || rows[1] < 10*rows[0] {
		t.Fatalf("the instances matched %d and %d rows; the gate wants a non-empty read and one at least 10x larger", rows[0], rows[1])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("%v allocations at %d rows, %v at %d rows; want the same", allocs[0], rows[0], allocs[1], rows[1])
	}
	if allocs[1] > pin {
		t.Errorf("%v allocations per query, pinned at %v", allocs[1], pin)
	}
	if bytes[1] > bytes[0]+1<<10 {
		t.Errorf("%d bytes at %d rows, %d at %d rows; want at most 1 KB more", bytes[0], rows[0], bytes[1], rows[1])
	}
	t.Logf("%v allocations and %d bytes at %d rows, %v and %d at %d rows", allocs[0], bytes[0], rows[0], allocs[1], bytes[1], rows[1])
}

// tpchClient opens a client with the given plan-cache size over a TPC-H
// market, with Nation and Region loaded locally and the named market tables
// bought whole.
func tpchClient(t testing.TB, planCache int, buy ...string) (*Client, *workload.TPCH) {
	t.Helper()
	d := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	m := market.New()
	if err := d.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("k")
	c, err := Open(Config{
		Tables:        append(m.ExportCatalog(), d.Nation, d.Region),
		Caller:        market.AccountCaller{Market: m, Key: "k"},
		PlanCacheSize: planCache,
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
	for _, table := range buy {
		if _, err := c.Query("SELECT COUNT(*) FROM " + table); err != nil {
			t.Fatal(err)
		}
	}
	return c, d
}

// TestRenderRowsIsValueString: the slab rendering of a result
// (storage.RenderRows) equals the per-cell value.Value.String rendering, over random relations of every
// kind and the float and integer corners, and keeps rows apart: appending
// to one row never writes into the next.
func TestRenderRowsIsValueString(t *testing.T) {
	corners := []value.Value{
		value.NewNull(), value.NewInt(0), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewFloat(math.Copysign(0, -1)), value.NewFloat(-1.2345678901234567e-300),
		value.NewString(""), value.NewString("NULL"), value.NewString("héllo \"<&>\""),
	}
	rng := rand.New(rand.NewSource(1))
	cell := func() value.Value {
		switch rng.Intn(4) {
		case 0:
			return corners[rng.Intn(len(corners))]
		case 1:
			return value.NewInt(rng.Int63() - rng.Int63())
		case 2:
			return value.NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
		default:
			return value.NewString(fmt.Sprintf("s%d", rng.Intn(100)))
		}
	}
	if got := storage.RenderRows(nil); got != nil {
		t.Fatalf("no rows render as %#v, want nil", got)
	}
	for trial := 0; trial < 200; trial++ {
		width, n := rng.Intn(6), rng.Intn(300)+1
		rows := make([]value.Row, n)
		want := make([][]string, n)
		for r := range rows {
			rows[r] = make(value.Row, width)
			want[r] = make([]string, width)
			for i := range rows[r] {
				rows[r][i] = cell()
				want[r][i] = rows[r][i].String()
			}
		}
		got := storage.RenderRows(rows)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: rendered\n%q\nwant\n%q", trial, got, want)
		}
		if n > 1 {
			_ = append(got[0], "appended")
			if !reflect.DeepEqual(got[1], want[1]) {
				t.Fatalf("trial %d: appending to row 0 overwrote row 1: %q", trial, got[1])
			}
		}
	}
}

// BenchmarkCoveredTPCH times one covered TPC-H query per iteration, per
// template, in process: the ledger's tpch_covered setup (SF 1, every market
// table bought whole, plan cache 256) without the daemon and the wire.
func BenchmarkCoveredTPCH(b *testing.B) {
	c, d := tpchClient(b, 256, "Customer", "Orders", "Lineitem", "Part", "Supplier", "PartSupp")
	tpls := d.Templates()
	benchCovered(b, c, []workload.Template{tpls[0], tpls[2], tpls[3], tpls[4]})
}

// BenchmarkCoveredWHW is BenchmarkCoveredTPCH over the ledger's whw_covered
// setup: WHW at 10 stations a country over 365 days, ZipMap local, Station,
// Weather and Pollution bought whole, plan cache 256; templates Q1–Q4.
func BenchmarkCoveredWHW(b *testing.B) {
	cfg := workload.DefaultWHWConfig()
	cfg.StationsPerCountry, cfg.Days = 10, 365
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		b.Fatal(err)
	}
	m.RegisterAccount("k")
	c, err := Open(Config{
		Tables:        append(m.ExportCatalog(), w.ZipMap),
		Caller:        market.AccountCaller{Market: m, Key: "k"},
		PlanCacheSize: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		b.Fatal(err)
	}
	for _, table := range []string{"Station", "Weather", "Pollution"} {
		if _, err := c.Query("SELECT COUNT(*) FROM " + table); err != nil {
			b.Fatal(err)
		}
	}
	benchCovered(b, c, w.Templates()[:4])
}

// benchCovered times one query per iteration, per template, over c's
// covered store, failing on any bill. Each iteration runs the next of 64
// instances drawn once from seed 1, so the plan cache hits as it does under
// the ledger.
func benchCovered(b *testing.B, c *Client, tpls []workload.Template) {
	for _, tpl := range tpls {
		rng := rand.New(rand.NewSource(1))
		sqls := make([]string, 64)
		for i := range sqls {
			sqls[i] = tpl.Instantiate(rng)
		}
		b.Run(tpl.Name[:2], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.Query(sqls[i%len(sqls)])
				if err != nil {
					b.Fatal(err)
				}
				if res.Report.Transactions != 0 {
					b.Fatalf("%s billed %d transactions over a covered store", sqls[i%len(sqls)], res.Report.Transactions)
				}
			}
		})
	}
}
