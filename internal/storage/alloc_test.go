package storage_test

import (
	"runtime"
	"testing"

	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// allocated runs f as testing.AllocsPerRun does and returns its allocations
// and bytes per run.
func allocated(runs int, f func()) (allocs float64, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs+1) // AllocsPerRun adds a warm-up run
}

// TestHashJoinAllocations is the deterministic regression guard for the join
// (wall-clock ratios belong to benchmarks/run.sh): joining SF-1 Orders with
// Lineitem — 8 000 build rows, 30 000 probe rows, 30 000 twelve-column output
// rows — allocates the key table, the match list and the output once, not
// two objects per output row, and its bytes stay within 15 % of the output's
// own slab and row headers.
func TestHashJoinAllocations(t *testing.T) {
	d := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	orders := storage.Relation{Schema: d.Orders.Schema, Rows: d.OrdersRows}
	lineitem := storage.Relation{Schema: d.Lineitem.Schema, Rows: d.LineitemRows}
	var out storage.Relation
	allocs, bytes := allocated(5, func() {
		out = storage.HashJoin(orders, lineitem, []int{0}, []int{0})
	})
	if out.Len() != len(d.LineitemRows) {
		t.Fatalf("join produced %d rows, want one per lineitem (%d)", out.Len(), len(d.LineitemRows))
	}
	if allocs > 64 {
		t.Errorf("HashJoin(Orders, Lineitem): %v allocations, want at most 64", allocs)
	}
	w := len(out.Schema)
	exact := uint64(out.Len()) * uint64(w*16+24) // slab + row headers
	if bytes > exact*115/100 {
		t.Errorf("HashJoin(Orders, Lineitem): %d bytes, want at most 1.15 x the output's %d", bytes, exact)
	}
	t.Logf("HashJoin(Orders, Lineitem): %v allocations, %d bytes (%.3f x output) for %d rows", allocs, bytes, float64(bytes)/float64(exact), out.Len())
}

// streamNations folds the id join of d's Customer and Orders into agg, fed
// each pair's Customer.NationKey, as the engine runs an aggregate's last
// join.
func streamNations(d *workload.TPCH, agg *storage.Aggregator) {
	a := storage.NewArena()
	defer a.Release()
	cust, orders := a.Whole(d.Customer.Schema, d.CustomerRows), a.Whole(d.Orders.Schema, d.OrdersRows)
	a.Fold(agg, cust, orders, []storage.Col{{In: 0, Col: 0}}, []storage.Col{{In: 0, Col: 1}}, []storage.Col{{In: 0, Col: 1}})
}

// TestStreamedGroupByAllocations gates the aggregating plan's last step, a
// T5-shaped Customer ⋈ Orders streamed into a GROUP BY NationKey: its
// allocations are the key tables and the groups, so they do not grow with
// the input. The race detector adds allocations of its own, so the gate
// runs only without it.
func TestStreamedGroupByAllocations(t *testing.T) {
	if storage.RaceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	run := func(scale float64) float64 {
		d := workload.GenerateTPCH(workload.TPCHConfig{Seed: 1, ScaleFactor: scale})
		var res storage.Relation
		allocs := testing.AllocsPerRun(5, func() {
			agg := storage.NewAggregator(d.Customer.Schema[1:2], []int{0}, []storage.AggSpec{{Func: storage.Count, Col: -1}})
			streamNations(d, agg)
			res = agg.Result()
		})
		if res.Len() != 25 {
			t.Fatalf("scale %v: %d groups, want one per nation (25)", scale, res.Len())
		}
		var n int64
		for _, row := range res.Rows {
			n += row[1].Int64()
		}
		if n != int64(len(d.OrdersRows)) {
			t.Fatalf("scale %v: counted %d joined rows, want one per order (%d)", scale, n, len(d.OrdersRows))
		}
		return allocs
	}
	if one, four := run(1), run(4); one != four {
		t.Errorf("streamed GROUP BY: %v allocations at 1x input, %v at 4x; want the same", one, four)
	} else {
		t.Logf("streamed GROUP BY: %v allocations at 1x and 4x input", one)
	}
}

// TestBlockScratchFlatInRows: a streamed aggregate of Orders ⋈ Lineitem
// over all 30 000 Lineitem rows leaves a new arena's block scratch the size
// the first 300 rows leave it: a block per column read, whatever the rows.
func TestBlockScratchFlatInRows(t *testing.T) {
	d := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	scratch := func(n int) int {
		a := new(storage.Arena)
		orders, items := a.Whole(d.Orders.Schema, d.OrdersRows), a.Whole(d.Lineitem.Schema, d.LineitemRows[:n])
		in := value.Schema{d.Orders.Schema[3], d.Lineitem.Schema[6]}
		agg := storage.NewAggregator(in, []int{0}, []storage.AggSpec{{Func: storage.Count, Col: -1}, {Func: storage.Sum, Col: 1}})
		a.Fold(agg, orders, items, []storage.Col{{In: 0, Col: 0}}, []storage.Col{{In: 0, Col: 0}}, []storage.Col{{In: 0, Col: 3}, {In: 1, Col: 6}})
		var rows int64
		for _, row := range agg.Result().Rows {
			rows += row[1].Int64()
		}
		if rows != int64(n) {
			t.Fatalf("%d Lineitem rows: counted %d joined rows, want one per item", n, rows)
		}
		return a.BlockScratch()
	}
	if small, all := scratch(300), scratch(len(d.LineitemRows)); small != all {
		t.Errorf("block scratch: %d bytes after 300 rows, %d after %d; want the same", small, all, len(d.LineitemRows))
	} else {
		t.Logf("block scratch: %d bytes after 300 and %d rows", small, len(d.LineitemRows))
	}
}

var sink storage.Relation

// BenchmarkJoinTPCH times the id joins of the covered TPC-H templates at SF
// 1, whole tables on both sides, in one arena: T5's Customer ⋈ Orders, T4's
// Part ⋈ PartSupp and T2's Orders ⋈ Lineitem. Values are not read.
func BenchmarkJoinTPCH(b *testing.B) {
	d := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	rel := func(s value.Schema, rows []value.Row) storage.Relation {
		return storage.Relation{Schema: s, Rows: rows}
	}
	cust, orders := rel(d.Customer.Schema, d.CustomerRows), rel(d.Orders.Schema, d.OrdersRows)
	for _, c := range []struct {
		name   string
		l, r   storage.Relation
		lc, rc int
	}{
		{"CustomerOrders", cust, orders, 0, 1},
		{"PartPartSupp", rel(d.Part.Schema, d.PartRows), rel(d.PartSupp.Schema, d.PartSuppRows), 0, 0},
		{"OrdersLineitem", orders, rel(d.Lineitem.Schema, d.LineitemRows), 0, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			a := storage.NewArena()
			defer a.Release()
			for i := 0; i < b.N; i++ {
				l, r := a.Whole(c.l.Schema, c.l.Rows), a.Whole(c.r.Schema, c.r.Rows)
				if t := a.Join(l, r, []storage.Col{{In: 0, Col: c.lc}}, []storage.Col{{In: 0, Col: c.rc}}); t.N == 0 {
					b.Fatal("empty join")
				}
			}
		})
	}
}

// BenchmarkAggregateGroupBy times GROUP BY at SF 1: T5's Customer ⋈ Orders
// streamed into a one-column group key (25 groups), and Lineitem grouped on
// a two-column key (SuppKey, Discount: 880 groups).
func BenchmarkAggregateGroupBy(b *testing.B) {
	d := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	lineitem := storage.Relation{Schema: d.Lineitem.Schema, Rows: d.LineitemRows}
	count := []storage.AggSpec{{Func: storage.Count, Col: -1}, {Func: storage.Sum, Col: 6}}
	b.Run("StreamedJoin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			agg := storage.NewAggregator(d.Customer.Schema[1:2], []int{0}, count[:1])
			streamNations(d, agg)
			sink = agg.Result()
		}
	})
	b.Run("Lineitem2Col", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = storage.Aggregate(lineitem, []int{2, 5}, count)
		}
	})
}
