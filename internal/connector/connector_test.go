package connector

import (
	"context"
	"net/http/httptest"
	"testing"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/value"
)

func newMarket(t *testing.T) *market.Market {
	t.Helper()
	m := market.New()
	ds, err := m.AddDataset("WHW", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta := &catalog.Table{
		Name: "Station",
		Schema: value.Schema{
			{Name: "Country", Type: value.String},
			{Name: "StationID", Type: value.Int},
		},
		Attrs: []catalog.Attribute{
			{Name: "Country", Type: value.String, Binding: catalog.Free, Class: catalog.CategoricalAttr,
				Domain: []value.Value{value.NewString("Canada"), value.NewString("United States")}},
			{Name: "StationID", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 100},
		},
	}
	var rows []value.Row
	for i := 1; i <= 150; i++ {
		country := "United States"
		if i%3 == 0 {
			country = "Canada"
		}
		rows = append(rows, value.Row{value.NewString(country), value.NewInt(int64(i%100 + 1))})
	}
	if err := ds.AddTable(meta, rows); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("k")
	return m
}

func TestClientCatalogAndCall(t *testing.T) {
	m := newMarket(t)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	c := New(srv.URL, "k")
	tables, err := c.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Name != "Station" || tables[0].Cardinality != 150 {
		t.Fatalf("catalog: %+v", tables)
	}

	res, err := c.Call(context.Background(), catalog.AccessQuery{Dataset: "WHW", Table: "Station"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 150 || res.Transactions != 2 {
		t.Errorf("whole table: %d records, %d trans", res.Records, res.Transactions)
	}

	ca := value.NewString("Canada")
	res2, err := c.Call(context.Background(), catalog.AccessQuery{Dataset: "WHW", Table: "Station", Preds: []catalog.Pred{
		{Attr: "Country", Eq: &ca},
		{Attr: "StationID", Lo: catalog.IntPtr(1), Hi: catalog.IntPtr(50)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Records == 0 || res2.Records >= 150 {
		t.Errorf("filtered call records: %d", res2.Records)
	}
	for _, r := range res2.Batch.Rows() {
		if r[0].Str() != "Canada" || r[1].Int64() > 50 {
			t.Errorf("row violates predicate: %v", r)
		}
	}

	meter, err := c.Meter()
	if err != nil {
		t.Fatal(err)
	}
	if meter.Calls != 2 {
		t.Errorf("meter: %+v", meter)
	}
}

func TestClientDatasetlessCall(t *testing.T) {
	m := newMarket(t)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := New(srv.URL, "k")
	res, err := c.Call(context.Background(), catalog.AccessQuery{Table: "Station"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 150 {
		t.Errorf("records: %d", res.Records)
	}
}

func TestClientTuplesPerTransaction(t *testing.T) {
	m := newMarket(t)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := New(srv.URL, "k")
	tpt, err := c.TuplesPerTransaction("WHW")
	if err != nil || tpt != 100 {
		t.Errorf("tpt: %d %v", tpt, err)
	}
	if _, err := c.TuplesPerTransaction("Ghost"); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestClientServerErrors(t *testing.T) {
	m := newMarket(t)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	bad := New(srv.URL, "wrong-key")
	if _, err := bad.Catalog(); err == nil {
		t.Error("bad key should error")
	}
	c := New(srv.URL, "k")
	if _, err := c.Call(context.Background(), catalog.AccessQuery{Table: "Ghost"}); err == nil {
		t.Error("unknown table should error")
	}
}

func TestClientUnreachable(t *testing.T) {
	c := New("http://127.0.0.1:1", "k")
	if _, err := c.Meter(); err == nil {
		t.Error("unreachable server should error")
	}
}

func TestClientPagination(t *testing.T) {
	// Publish a table larger than one transport page so Call must follow
	// NextPage links.
	m := market.New()
	ds, _ := m.AddDataset("BIG", 100, 1)
	meta := &catalog.Table{
		Name:   "Big",
		Schema: value.Schema{{Name: "K", Type: value.Int}},
		Attrs: []catalog.Attribute{
			{Name: "K", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 20000},
		},
	}
	var rows []value.Row
	for i := 1; i <= market.PageRows+123; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i))})
	}
	if err := ds.AddTable(meta, rows); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("k")
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	c := New(srv.URL, "k")
	res, err := c.Call(context.Background(), catalog.AccessQuery{Dataset: "BIG", Table: "Big"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.N != market.PageRows+123 {
		t.Fatalf("paged rows: %d, want %d", res.Batch.N, market.PageRows+123)
	}
	// Billing happened once (on page 0), covering all records.
	meter, _ := m.MeterOf("k")
	wantTrans := int64((market.PageRows + 123 + 99) / 100)
	if meter.Transactions != wantTrans {
		t.Errorf("paging must bill exactly once: %d, want %d", meter.Transactions, wantTrans)
	}
	// All keys present exactly once.
	seen := make(map[int64]bool)
	for _, r := range res.Batch.Rows() {
		if seen[r[0].Int64()] {
			t.Fatalf("duplicate key %d across pages", r[0].Int64())
		}
		seen[r[0].Int64()] = true
	}
}
