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

// TestCoveredQueryAllocations pins what one fully covered TPC-H T3 (a
// four-relation join under a GROUP BY, over a store that owns every table)
// allocates through Client.Query with the plan cache on, as paylessd runs it:
// allocations and bytes, the latter bounding the cells the joins copy.
// Allocation counts are deterministic where wall-clock ratios are not: this
// is the regression guard on the local executor — string keys or per-row
// join output put this query above 10 000 — and the timing itself is
// benchmarks/run.sh's business. A covered T1 (one relation under an
// aggregate) streams the store's rows into the aggregator, so it allocates
// the same whether its box holds a dozen rows or twenty thousand.
func TestCoveredQueryAllocations(t *testing.T) {
	c, d := tpchClient(t, 256, "Customer", "Orders", "Lineitem")
	t.Run("T1", func(t *testing.T) { coveredT1Allocations(t, c) })
	sql := d.Templates()[2].Instantiate(rand.New(rand.NewSource(3)))
	res, err := c.Query(sql) // also compiles the plan template
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Transactions != 0 || len(res.Rows) == 0 {
		t.Fatalf("%s: billed %d transactions for %d rows, want a covered, non-empty answer", sql, res.Report.Transactions, len(res.Rows))
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := c.Query(sql); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up run
	const pinned, pinnedBytes = 120, 124 << 10
	if allocs > pinned {
		t.Errorf("covered T3: %v allocations per query, pinned at %d", allocs, pinned)
	}
	if bytes > pinnedBytes {
		t.Errorf("covered T3: %d bytes per query, pinned at %d", bytes, pinnedBytes)
	}
	t.Logf("covered T3: %v allocations, %d bytes per query", allocs, bytes)
}

// coveredT1Allocations runs two instances of T1 over a covered Lineitem,
// one selecting a single ship date and one most of the table, and requires
// the same allocations of both, and bytes apart by no more than the wide
// read's transient selection: a bit per stored row, under 8 KB. Both boxes
// restrict the table, so each read builds one selection; a row list of the
// wide read's rows alone would be 500 KB.
func coveredT1Allocations(t *testing.T, c *Client) {
	const t1 = "SELECT COUNT(*), SUM(ExtendedPrice) FROM Lineitem WHERE ShipDate >= %d AND ShipDate <= %d AND Discount >= 0 AND Discount <= %d AND Quantity <= 50"
	const runs = 20
	var rows [2]int64
	var allocs [2]float64
	var bytes [2]uint64
	for i, sql := range []string{fmt.Sprintf(t1, 1000, 1000, 10), fmt.Sprintf(t1, 1, 2000, 9)} {
		res, err := c.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Transactions != 0 {
			t.Fatalf("%s: billed %d transactions over a covered Lineitem", sql, res.Report.Transactions)
		}
		if rows[i], err = strconv.ParseInt(res.Rows[0][0], 10, 64); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs[i] = testing.AllocsPerRun(runs, func() {
			if _, err := c.Query(sql); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		bytes[i] = (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	if rows[0] == 0 || rows[1] < 10*rows[0] {
		t.Fatalf("T1 matched %d and %d rows; the gate wants a non-empty read and one at least 10x larger", rows[0], rows[1])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("covered T1: %v allocations at %d rows, %v at %d rows; want the same", allocs[0], rows[0], allocs[1], rows[1])
	}
	if bytes[1] > bytes[0]+8<<10 {
		t.Errorf("covered T1: %d bytes at %d rows, %d at %d rows; want at most 8 KB more", bytes[0], rows[0], bytes[1], rows[1])
	}
	t.Logf("covered T1: %v allocations and %d bytes at %d rows, %v and %d at %d rows", allocs[0], bytes[0], rows[0], allocs[1], bytes[1], rows[1])
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

// TestRenderRowsIsValueString: the slab rendering of a result equals the
// per-cell value.Value.String rendering, over random relations of every
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
	if got := renderRows(nil); got != nil {
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
		got := renderRows(rows)
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
// table bought whole, plan cache 256) without the daemon and the wire. Each
// iteration runs the next of 64 instances drawn once from seed 1, so the
// plan cache hits as it does under the ledger.
func BenchmarkCoveredTPCH(b *testing.B) {
	c, d := tpchClient(b, 256, "Customer", "Orders", "Lineitem", "Part", "Supplier", "PartSupp")
	for _, ti := range []int{0, 2, 3, 4} {
		tpl := d.Templates()[ti]
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
