package market

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	"payless/internal/catalog"
	"payless/internal/value"
)

// sameResult compares two results exactly: kinds, payloads (NaN equals NaN
// of the same bits, -0 differs from 0) and every scalar.
func sameResult(a, b Result) error {
	if a.Records != b.Records || a.Transactions != b.Transactions ||
		math.Float64bits(a.Price) != math.Float64bits(b.Price) {
		return fmt.Errorf("scalars %d/%d/%v vs %d/%d/%v", a.Records, a.Transactions, a.Price, b.Records, b.Transactions, b.Price)
	}
	ar, br := a.Batch.Rows(), b.Batch.Rows()
	if len(a.Schema) != len(b.Schema) || len(ar) != len(br) {
		return fmt.Errorf("%d columns x %d rows vs %d x %d", len(a.Schema), len(ar), len(b.Schema), len(br))
	}
	for i := range a.Schema {
		if a.Schema[i] != b.Schema[i] {
			return fmt.Errorf("column %d: %v vs %v", i, a.Schema[i], b.Schema[i])
		}
	}
	for r := range ar {
		if len(ar[r]) != len(br[r]) {
			return fmt.Errorf("row %d: width %d vs %d", r, len(ar[r]), len(br[r]))
		}
		for c, v := range ar[r] {
			w := br[r][c]
			if v.K != w.K || v.Int64() != w.Int64() || v.Str() != w.Str() || math.Float64bits(v.Float64()) != math.Float64bits(w.Float64()) {
				return fmt.Errorf("row %d cell %d: %#v vs %#v", r, c, v, w)
			}
		}
	}
	return nil
}

// SameResult is sameResult for the external tests of this package.
var SameResult = sameResult

// allKinds is a result over the four kinds whose rows put NULL and the
// four-letter string "NULL" where the old wire format confused them.
func allKinds() Result {
	schema := value.Schema{{Name: "I", Type: value.Int}, {Name: "F", Type: value.Float}, {Name: "S", Type: value.String}, {Name: "N", Type: value.Null}}
	rows := []value.Row{
		{value.NewInt(-42), value.NewFloat(2.5), value.NewString("NULL"), value.NewNull()},
		{value.NewNull(), value.NewNull(), value.NewNull(), value.NewNull()},
		{value.NewInt(math.MinInt64), value.NewFloat(math.Inf(-1)), value.NewString("quote\" slash\\ tab\t é 世 \x00 <&>"), value.NewNull()},
		{value.NewInt(0), value.NewFloat(math.Copysign(0, -1)), value.NewString(""), value.NewNull()},
	}
	return Result{Schema: schema, Batch: value.BatchOf(schema, rows), Records: len(rows), Transactions: 1, Price: 0.25}
}

// TestWireRoundTripKeepsNull: NULL used to travel as the string "NULL", which
// failed to parse back in a numeric column and came back as a four-letter
// string in a string column.
func TestWireRoundTripKeepsNull(t *testing.T) {
	res := allKinds()
	body := AppendResultPage(nil, res, 0, res.Batch.N, 0)
	back, next, err := DecodeResultPage(body)
	if err != nil || next != 0 {
		t.Fatalf("decode: next %d, %v\n%s", next, err, body)
	}
	if err := sameResult(back, res); err != nil {
		t.Fatalf("%v\n%s", err, body)
	}
	if back.Batch.At(0, 2).K != value.String || back.Batch.At(1, 0).K != value.Null {
		t.Fatalf(`String("NULL") and NULL must stay apart: %v / %v`, back.Batch.At(0, 2), back.Batch.At(1, 0))
	}

	// A follow-up page carries rows and the record count but no bill.
	page, next, err := DecodeResultPage(AppendResultPage(nil, res, 1, 3, 2))
	if err != nil || next != 2 || page.Batch.N != 2 || page.Records != res.Batch.N || page.Transactions != 0 || page.Price != 0 {
		t.Fatalf("page 1: %+v next %d (%v)", page, next, err)
	}
}

// TestHTTPAgreesWithInProcessOnNulls: the two transports must hand the engine
// the same rows for a table with missing values.
func TestHTTPAgreesWithInProcessOnNulls(t *testing.T) {
	m := New()
	ds, err := m.AddDataset("EHR", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta, rows := testTable(40)
	meta.Schema = append(meta.Schema, value.Column{Name: "Note", Type: value.String})
	meta.Attrs = append(meta.Attrs, catalog.Attribute{Name: "Note", Type: value.String, Binding: catalog.Output})
	for i := range rows {
		note := value.NewString("NULL")
		switch i % 3 {
		case 0:
			note = value.NewNull()
		case 1:
			rows[i][2] = value.NewNull() // Latitude, a float column
		}
		rows[i] = append(rows[i], note)
	}
	if err := ds.AddTable(meta, rows); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("key1")
	srv, _ := newTestServerFor(t, m)

	q := catalog.AccessQuery{Dataset: "EHR", Table: "Pollution", Preds: []catalog.Pred{{Attr: "Rank", Lo: catalog.IntPtr(1), Hi: catalog.IntPtr(30)}}}
	local, err := m.Execute("key1", q)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, srv, "/v1/data/EHR/Pollution?Rank.gte=1&Rank.lte=30", "key1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	remote, _, err := DecodeResultPage(body)
	if err != nil {
		t.Fatal(err)
	}
	if local.Batch.N != 30 {
		t.Fatalf("in-process call returned %d rows, want 30", local.Batch.N)
	}
	if err := sameResult(remote, local); err != nil {
		t.Fatalf("HTTP vs in-process: %v", err)
	}
}

// TestDecodeResultPageAllocations is the deterministic gate on the per-row
// cost of the wire: a page of 500 rows by 8 columns, 3 of them strings,
// decodes in a constant number of allocations that does not depend on the
// number of rows once its texts are interned: 5, the schema, the batch's
// vectors and one slab of cells for each of the three kinds. The race detector adds allocations of its
// own, so the gate runs only without it.
func TestDecodeResultPageAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const n, stringCols, pinned = 500, 3, 8
	res := Result{Records: n, Transactions: 5, Price: 5}
	for c, k := range []value.Kind{value.Int, value.Int, value.Float, value.Float, value.String, value.String, value.Int, value.String} {
		res.Schema = append(res.Schema, value.Column{Name: fmt.Sprintf("C%d", c), Type: k})
	}
	rows := make([]value.Row, n)
	for r := range rows {
		rows[r] = make(value.Row, len(res.Schema))
		for c, col := range res.Schema {
			switch col.Type {
			case value.Int:
				rows[r][c] = value.NewInt(int64(r*1000003 + c))
			case value.Float:
				rows[r][c] = value.NewFloat(float64(r) / 7)
			default:
				rows[r][c] = value.NewString(fmt.Sprintf("cell %d of row %d", c, r))
			}
		}
	}
	res.Batch = value.BatchOf(res.Schema, rows)
	body := AppendResultPage(nil, res, 0, n, 0)
	allocs := testing.AllocsPerRun(20, func() {
		if got, _, err := DecodeResultPage(body); err != nil || got.Batch.N != n {
			t.Fatalf("%d rows (%v)", got.Batch.N, err)
		}
	})
	// The first decode interned every text, so the measured ones hit the
	// dictionary for every string cell and allocate nothing for it.
	if allocs > pinned {
		t.Errorf("decoding %d rows: %v allocations, pinned at %d (none per string cell)", n, allocs, pinned)
	}
	t.Logf("%v allocations for %d string cells", allocs, n*stringCols)
}
