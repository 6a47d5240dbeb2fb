package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"payless/internal/catalog"
	"payless/internal/value"
)

// batchTable has a numeric axis whose values reach past ±2^53, a String
// categorical axis, an Int categorical axis and Float and String outputs.
func batchTable() *catalog.Table {
	strs := []value.Value{value.NewString("a"), value.NewString("NULL"), value.NewString("")}
	ints := []value.Value{value.NewInt(3), value.NewInt(1<<53 + 1), value.NewInt(-7)}
	return &catalog.Table{
		Name: "B", Dataset: "DS",
		Schema: value.Schema{
			{Name: "K", Type: value.Int}, {Name: "C", Type: value.String}, {Name: "G", Type: value.Int},
			{Name: "F", Type: value.Float}, {Name: "S", Type: value.String},
		},
		Attrs: []catalog.Attribute{
			{Name: "K", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: -1 << 62, Max: 1 << 62},
			{Name: "C", Type: value.String, Binding: catalog.Free, Class: catalog.CategoricalAttr, Domain: strs},
			{Name: "G", Type: value.Int, Binding: catalog.Free, Class: catalog.CategoricalAttr, Domain: ints},
			{Name: "F", Type: value.Float, Binding: catalog.Output},
			{Name: "S", Type: value.String, Binding: catalog.Output},
		},
	}
}

var batchKeys = []int64{0, 1, -1, 1<<53 + 1, 1 << 53, -(1<<53 + 1), math.MaxInt64, math.MinInt64}

// drawRow draws a row of batchTable, NULL in any column now and then.
func drawRow(rng *rand.Rand, meta *catalog.Table) value.Row {
	floats := []value.Value{value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN()),
		value.NewFloat(math.Float64frombits(0x7ff8000000000001)), value.NewFloat(2.5)}
	row := value.Row{
		value.NewInt(batchKeys[rng.Intn(len(batchKeys))]),
		meta.Attrs[1].Domain[rng.Intn(3)],
		meta.Attrs[2].Domain[rng.Intn(3)],
		floats[rng.Intn(len(floats))],
		value.NewString([]string{"x", "\xff", "NULL"}[rng.Intn(3)]),
	}
	for c := range row {
		if rng.Intn(8) == 0 {
			row[c] = value.Value{}
		}
	}
	return row
}

// drawQuery draws an access query on batchTable: ranges and equalities on
// the numeric axis, equalities on the categoricals, Int and Float literals.
func drawQuery(rng *rand.Rand) catalog.AccessQuery {
	q := catalog.AccessQuery{Dataset: "DS", Table: "B"}
	k := batchKeys[rng.Intn(len(batchKeys))]
	switch rng.Intn(4) {
	case 0:
		q.Preds = append(q.Preds, catalog.Pred{Attr: "K", Eq: catalog.ValPtr(value.NewInt(k))})
	case 1:
		q.Preds = append(q.Preds, catalog.Pred{Attr: "K", Eq: catalog.ValPtr(value.NewFloat(float64(k)))})
	case 2:
		q.Preds = append(q.Preds, catalog.Pred{Attr: "K", Lo: catalog.IntPtr(k), Hi: catalog.IntPtr(k + rng.Int63n(1<<54))})
	}
	if rng.Intn(2) == 0 {
		q.Preds = append(q.Preds, catalog.Pred{Attr: "C", Eq: catalog.ValPtr(batchTable().Attrs[1].Domain[rng.Intn(3)])})
	}
	if rng.Intn(2) == 0 {
		q.Preds = append(q.Preds, catalog.Pred{Attr: "G", Eq: catalog.ValPtr(batchTable().Attrs[2].Domain[rng.Intn(3)])})
	}
	return q
}

// TestBatchFilterMatchesRows: filterRows and PartCounts over random batches
// select and count exactly the rows catalog.Filter.Matches accepts of the
// same rows materialised, bit for bit and in order. A failure names the
// seed to rerun.
func TestBatchFilterMatchesRows(t *testing.T) {
	meta := batchTable()
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkBatchFilter(t, meta, seed) })
	}
}

// checkBatchFilter runs TestBatchFilterMatchesRows at one seed.
func checkBatchFilter(t *testing.T, meta *catalog.Table, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\nrepro: go test -run 'TestBatchFilterMatchesRows/seed=%d$' ./internal/sched/", fmt.Sprintf(format, args...), seed)
	}
	rows := make([]value.Row, rng.Intn(60))
	for i := range rows {
		rows[i] = drawRow(rng, meta)
	}
	b := value.BatchOf(meta.Schema, rows)
	var parts []catalog.AccessQuery
	for range 6 {
		q := drawQuery(rng)
		parts = append(parts, q)
		f := catalog.CompileFilter(meta, q)
		var want []value.Row
		for _, row := range rows {
			if f.Matches(row) {
				want = append(want, row)
			}
		}
		got := filterRows(meta, q, b)
		if got.N != len(want) {
			fail("%v selects %d rows of the batch, %d of the rows", q, got.N, len(want))
		}
		for r, row := range got.Rows() {
			for c := range row {
				if row[c] != want[r][c] {
					fail("%v: row %d is %v, the rows' %v", q, r, row, want[r])
				}
			}
		}
	}
	counts := PartCounts(meta, parts, b)
	for i, q := range parts {
		f, want := catalog.CompileFilter(meta, q), int64(0)
		for _, row := range rows {
			if f.Matches(row) {
				want++
			}
		}
		if counts[i] != want {
			fail("PartCounts counts %d rows in %v, Matches %d", counts[i], q, want)
		}
	}
}
