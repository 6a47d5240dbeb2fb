package market_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/connector"
	"payless/internal/market"
	"payless/internal/value"
)

// Special cells the random pages draw from, beside random ones: the Int
// edges and integers a float64 cannot hold, the Float values text once
// rounded or canonicalised (−0, ±Inf, and NaNs of two payloads: the JSON
// wire wrote every NaN as "NaN" and read back one payload, the batch keeps
// the bits), and strings that are empty, spell NULL, or hold bytes that are
// not UTF-8, one stray byte and a run of two.
var (
	specialInts   = []int64{0, -1, math.MaxInt64, math.MinInt64, 1<<53 + 1, -(1<<53 + 1)}
	specialFloats = []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000abc), 1.5}
	specialTexts = []string{"", "NULL", "é 世 😀", "bad \xff byte", "two \x80\x80 bytes", "quote\" nul\x00"}
	regions      = []string{"", "north", "south", "ümlaut"}
)

// randomMarket publishes one table of n random rows in dataset D: a
// categorical Region (an empty string in its domain, NULL in some rows), a
// numeric K, and output columns of every kind — Int, Float, String and a
// null-kind one — each NULL in about a fifth of the rows.
func randomMarket(t testing.TB, rng *rand.Rand, n int) *market.Market {
	t.Helper()
	var domain []value.Value
	for _, r := range regions {
		domain = append(domain, value.NewString(r))
	}
	meta := &catalog.Table{
		Name: "T",
		Schema: value.Schema{{Name: "Region", Type: value.String}, {Name: "K", Type: value.Int},
			{Name: "I", Type: value.Int}, {Name: "F", Type: value.Float}, {Name: "S", Type: value.String}, {Name: "N", Type: value.Null}},
		Attrs: []catalog.Attribute{
			{Name: "Region", Type: value.String, Binding: catalog.Free, Class: catalog.CategoricalAttr, Domain: domain},
			{Name: "K", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 0, Max: int64(n)},
			{Name: "I", Type: value.Int, Binding: catalog.Output},
			{Name: "F", Type: value.Float, Binding: catalog.Output},
			{Name: "S", Type: value.String, Binding: catalog.Output},
			{Name: "N", Type: value.Null, Binding: catalog.Output},
		},
	}
	rows := make([]value.Row, n)
	for i := range rows {
		row := value.Row{domain[rng.Intn(len(domain))], value.NewInt(int64(rng.Intn(n + 1))),
			value.NewInt(rng.Int63() - rng.Int63()), value.NewFloat(rng.NormFloat64() * 1e6),
			value.NewString(fmt.Sprintf("s%d", rng.Intn(50))), value.NewNull()}
		if rng.Intn(3) == 0 {
			row[2] = value.NewInt(specialInts[rng.Intn(len(specialInts))])
			row[3] = value.NewFloat(specialFloats[rng.Intn(len(specialFloats))])
			row[4] = value.NewString(specialTexts[rng.Intn(len(specialTexts))])
		}
		for c := range 5 {
			if c != 1 && rng.Intn(5) == 0 {
				row[c] = value.NewNull()
			}
		}
		rows[i] = row
	}
	m := market.New()
	ds, err := m.AddDataset("D", 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTable(meta, rows); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("k")
	return m
}

// randomCalls draws calls on randomMarket's table: the whole table, a K
// range (sometimes past the domain, so empty), a Region, or both.
func randomCalls(rng *rand.Rand, n, count int) []catalog.AccessQuery {
	calls := []catalog.AccessQuery{{Dataset: "D", Table: "T"}}
	for len(calls) < count {
		q := catalog.AccessQuery{Dataset: "D", Table: "T"}
		if rng.Intn(3) > 0 {
			lo := int64(rng.Intn(n + 10))
			q.Preds = append(q.Preds, catalog.Pred{Attr: "K", Lo: catalog.IntPtr(lo), Hi: catalog.IntPtr(lo + int64(rng.Intn(n)))})
		}
		if rng.Intn(3) == 0 {
			r := value.NewString(regions[rng.Intn(len(regions))])
			q.Preds = append(q.Preds, catalog.Pred{Attr: "Region", Eq: &r})
		}
		calls = append(calls, q)
	}
	return calls
}

// asWire is the result the wire must deliver for an in-process one: every
// String cell with one U+FFFD for each byte that is not UTF-8, as
// value.AppendJSONString and the store write them.
func asWire(res market.Result) market.Result {
	out := res
	out.Rows = make([]value.Row, len(res.Rows))
	for r, row := range res.Rows {
		out.Rows[r] = row.Clone()
		for c, v := range row {
			if v.K == value.String {
				out.Rows[r][c] = value.NewString(strings.Map(func(r rune) rune { return r }, v.Str()))
			}
		}
	}
	return out
}

// shrinkPages sets the market's page size for one test.
func shrinkPages(t *testing.T, rows int) {
	saved := market.PageRows
	market.PageRows = rows
	t.Cleanup(func() { market.PageRows = saved })
}

// TestHTTPPagesMatchInProcess is the differential of the two transports on
// random tables: each call bought over HTTP through the connector — paged
// at 7 rows, so most calls take several pages and some an empty one — must
// equal Market.Execute's result cell for cell, payload bits included, but
// for the String cells the wire makes valid UTF-8.
func TestHTTPPagesMatchInProcess(t *testing.T) {
	shrinkPages(t, 7)
	pages := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		m := randomMarket(t, rng, n)
		srv := httptest.NewServer(m.Handler())
		c := connector.New(srv.URL, "k")
		for _, q := range randomCalls(rng, n, 12) {
			want, err := m.Execute("k", q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Call(context.Background(), q)
			if err != nil {
				t.Fatalf("seed %d, %v: %v", seed, q, err)
			}
			if err := market.SameResult(got, asWire(want)); err != nil {
				t.Fatalf("seed %d, %v: HTTP vs in-process: %v", seed, q, err)
			}
			pages += 1 + len(want.Rows)/market.PageRows
		}
		srv.Close()
	}
	if pages < 200 {
		t.Fatalf("%d pages bought; the sweep should cross many page edges", pages)
	}
}

// differentialPages are the bodies of every page of the differential's
// calls, as the seller writes them.
func differentialPages(t testing.TB) [][]byte {
	var pages [][]byte
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		m := randomMarket(t, rng, n)
		for _, q := range randomCalls(rng, n, 12) {
			res, err := m.Execute("k", q)
			if err != nil {
				t.Fatal(err)
			}
			for from := 0; from == 0 || from < len(res.Rows); from += 7 {
				to, next := min(from+7, len(res.Rows)), 0
				if to < len(res.Rows) {
					next = from/7 + 1
				}
				pages = append(pages, market.AppendResultPage(nil, res, from, to, next))
			}
		}
	}
	return pages
}

// TestTruncatedPageFails: every strict prefix of a valid page fails to
// decode, so a page cut short is a connector.Fault, retried at its page,
// never a shorter result.
func TestTruncatedPageFails(t *testing.T) {
	for _, page := range differentialPages(t)[:60] {
		if _, _, err := market.DecodeResultPage(page); err != nil {
			t.Fatal(err)
		}
		for i := range page {
			if _, _, err := market.DecodeResultPage(page[:i]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte page decodes", i, len(page))
			}
		}
	}
}

// hostilePages claim more than they hold: 2^40 rows of one column, rows of
// no columns, and 2^40 columns.
var hostilePages = [][]byte{
	append([]byte("PLP\x01\x01\x01a\x01"), binaryUvarint(1<<40)...),
	[]byte("PLP\x01\x00\x05\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
	append([]byte("PLP\x01"), binaryUvarint(1<<40)...),
}

func binaryUvarint(x uint64) []byte {
	var b []byte
	for ; x >= 0x80; x >>= 7 {
		b = append(b, byte(x)|0x80)
	}
	return append(b, byte(x))
}

// FuzzDecodeWireResult fuzzes the data-call decoder from the differential's
// pages and the hostile ones. On any body, DecodeResultPage must not panic
// and must not allocate more than the body could describe: at most 8 rows a
// byte in each column, each row a 24-byte header and 16 bytes a cell. A
// body it accepts must re-encode byte for byte: the format has one spelling
// a page.
func FuzzDecodeWireResult(f *testing.F) {
	for _, page := range differentialPages(f) {
		f.Add(page)
	}
	for _, page := range hostilePages {
		f.Add(page)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		market.DecodeResultPage(body) // interns the body's texts, so the measured decode adds none
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, next, err := market.DecodeResultPage(body)
		runtime.ReadMemStats(&after)
		if allocated, limit := after.TotalAlloc-before.TotalAlloc, 16<<10+uint64(len(body))*8*(24+16); allocated > limit {
			t.Fatalf("a %d-byte body allocated %d bytes, more than the %d it could describe (%v)", len(body), allocated, limit, err)
		}
		if err != nil {
			return
		}
		if again := market.AppendResultPage(nil, res, 0, len(res.Rows), next); !bytes.Equal(again, body) {
			t.Fatalf("accepted %q, which re-encodes as %q", body, again)
		}
	})
}
