package market

import (
	"context"
	"sync"
	"testing"

	"payless/internal/catalog"
	"payless/internal/value"
)

// testTable builds a small Pollution-like table: ZipCode categorical,
// Rank numeric free, Latitude output-only.
func testTable(n int) (*catalog.Table, []value.Row) {
	dom := []value.Value{}
	for _, z := range []string{"10001", "10002", "10003", "10004"} {
		dom = append(dom, value.NewString(z))
	}
	meta := &catalog.Table{
		Name: "Pollution",
		Schema: value.Schema{
			{Name: "ZipCode", Type: value.String},
			{Name: "Rank", Type: value.Int},
			{Name: "Latitude", Type: value.Float},
		},
		Attrs: []catalog.Attribute{
			{Name: "ZipCode", Type: value.String, Binding: catalog.Free, Class: catalog.CategoricalAttr, Domain: dom},
			{Name: "Rank", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 1000},
			{Name: "Latitude", Type: value.Float, Binding: catalog.Output},
		},
	}
	rows := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, value.Row{
			dom[i%len(dom)],
			value.NewInt(int64(i%1000 + 1)),
			value.NewFloat(40.0 + float64(i)/1000),
		})
	}
	return meta, rows
}

func newTestMarket(t *testing.T, n int) *Market {
	t.Helper()
	m := New()
	ds, err := m.AddDataset("EHR", 100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	meta, rows := testTable(n)
	if err := ds.AddTable(meta, rows); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("key1")
	return m
}

func TestAddDatasetValidation(t *testing.T) {
	m := New()
	if _, err := m.AddDataset("D", 0, 1); err == nil {
		t.Error("t=0 should error")
	}
	if _, err := m.AddDataset("D", 100, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddDataset("D", 100, 1); err == nil {
		t.Error("duplicate dataset should error")
	}
}

func TestAddTableValidation(t *testing.T) {
	m := New()
	ds, _ := m.AddDataset("D", 100, 1)
	meta, rows := testTable(5)
	if err := ds.AddTable(meta, rows); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTable(meta, rows); err == nil {
		t.Error("duplicate table should error")
	}
	meta2, _ := testTable(0)
	meta2.Name = "BadRows"
	if err := ds.AddTable(meta2, []value.Row{{value.NewInt(1)}}); err == nil {
		t.Error("bad row width should error")
	}
}

func TestExecutePricing(t *testing.T) {
	// 250 rows, t=100 => whole-table call costs ceil(250/100)=3 transactions.
	m := newTestMarket(t, 250)
	res, err := m.Execute("key1", catalog.AccessQuery{Table: "Pollution"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 250 || res.Transactions != 3 || res.Price != 3 {
		t.Errorf("whole table: records=%d trans=%d price=%v", res.Records, res.Transactions, res.Price)
	}
	// Empty result costs nothing.
	res2, err := m.Execute("key1", catalog.AccessQuery{Table: "Pollution", Preds: []catalog.Pred{
		{Attr: "Rank", Lo: catalog.IntPtr(2000), Hi: catalog.IntPtr(3000)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Records != 0 || res2.Transactions != 0 || res2.Price != 0 {
		t.Errorf("empty result should be free: %+v", res2)
	}
	// One row costs one transaction.
	zip := value.NewString("10001")
	res3, err := m.Execute("key1", catalog.AccessQuery{Table: "Pollution", Preds: []catalog.Pred{
		{Attr: "ZipCode", Eq: &zip},
		{Attr: "Rank", Lo: catalog.IntPtr(1), Hi: catalog.IntPtr(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Records == 0 || res3.Transactions != 1 {
		t.Errorf("small result: %+v records=%d", res3.Transactions, res3.Records)
	}
	meter, ok := m.MeterOf("key1")
	if !ok || meter.Calls != 3 || meter.Transactions != 3+0+res3.Transactions {
		t.Errorf("meter: %+v", meter)
	}
}

func TestExecuteAuthAndLookupErrors(t *testing.T) {
	m := newTestMarket(t, 10)
	if _, err := m.Execute("nope", catalog.AccessQuery{Table: "Pollution"}); err == nil {
		t.Error("unknown account should error")
	}
	if _, err := m.Execute("key1", catalog.AccessQuery{Table: "Ghost"}); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := m.Execute("key1", catalog.AccessQuery{Dataset: "Ghost", Table: "Pollution"}); err == nil {
		t.Error("unknown dataset should error")
	}
	if _, err := m.Execute("key1", catalog.AccessQuery{Dataset: "EHR", Table: "Ghost"}); err == nil {
		t.Error("unknown table in dataset should error")
	}
	// Binding violation: range on categorical.
	if _, err := m.Execute("key1", catalog.AccessQuery{Table: "Pollution", Preds: []catalog.Pred{
		{Attr: "ZipCode", Lo: catalog.IntPtr(1)},
	}}); err == nil {
		t.Error("binding violation should error")
	}
	if _, ok := m.MeterOf("ghost"); ok {
		t.Error("MeterOf unknown account")
	}
}

func TestAmbiguousTableAcrossDatasets(t *testing.T) {
	m := newTestMarket(t, 5)
	ds2, _ := m.AddDataset("EHR2", 100, 1)
	meta, rows := testTable(5)
	if err := ds2.AddTable(meta, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute("key1", catalog.AccessQuery{Table: "Pollution"}); err == nil {
		t.Error("ambiguous table without dataset should error")
	}
	if _, err := m.Execute("key1", catalog.AccessQuery{Dataset: "EHR2", Table: "Pollution"}); err != nil {
		t.Errorf("qualified lookup should succeed: %v", err)
	}
}

func TestIndexMatchesFullScan(t *testing.T) {
	m := newTestMarket(t, 997)
	zip := value.NewString("10002")
	q := catalog.AccessQuery{Table: "Pollution", Preds: []catalog.Pred{
		{Attr: "ZipCode", Eq: &zip},
		{Attr: "Rank", Lo: catalog.IntPtr(100), Hi: catalog.IntPtr(500)},
	}}
	res1, err := m.Execute("key1", q)
	if err != nil {
		t.Fatal(err)
	}
	// Second call reuses the index; results must be identical.
	res2, _ := m.Execute("key1", q)
	if res1.Records != res2.Records {
		t.Errorf("index inconsistency: %d vs %d", res1.Records, res2.Records)
	}
	// Cross-check with a manual count.
	_, rows := testTable(997)
	meta, _ := testTable(0)
	want := 0
	f := catalog.CompileFilter(meta, q)
	for _, r := range rows {
		if f.Matches(r) {
			want++
		}
	}
	if res1.Records != want {
		t.Errorf("records=%d, want %d", res1.Records, want)
	}
	if want == 0 {
		t.Fatal("test needs a non-empty result")
	}
}

func TestExportCatalog(t *testing.T) {
	m := newTestMarket(t, 42)
	tables := m.ExportCatalog()
	if len(tables) != 1 {
		t.Fatalf("catalog size: %d", len(tables))
	}
	tb := tables[0]
	if tb.Dataset != "EHR" || tb.Name != "Pollution" || tb.Cardinality != 42 {
		t.Errorf("exported meta: %+v", tb)
	}
	if tb.PricePerTransaction != 1.0 {
		t.Errorf("price: %v", tb.PricePerTransaction)
	}
}

func TestAccountCaller(t *testing.T) {
	m := newTestMarket(t, 10)
	var c Caller = AccountCaller{Market: m, Key: "key1"}
	res, err := c.Call(context.Background(), catalog.AccessQuery{Table: "Pollution"})
	if err != nil || res.Records != 10 {
		t.Errorf("AccountCaller: %+v %v", res, err)
	}
	bad := AccountCaller{Market: m, Key: "nope"}
	if _, err := bad.Call(context.Background(), catalog.AccessQuery{Table: "Pollution"}); err == nil {
		t.Error("bad key should error")
	}
}

func TestAppendGrowsDomainAndCardinality(t *testing.T) {
	m := newTestMarket(t, 10)
	ds, ok := m.Dataset("EHR")
	if !ok {
		t.Fatal("dataset lookup")
	}
	// Append a row with a rank beyond the current numeric domain.
	err := ds.Append("Pollution", []value.Row{{
		value.NewString("10001"), value.NewInt(5000), value.NewFloat(1.0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var meta *catalog.Table
	for _, tb := range m.ExportCatalog() {
		if tb.Name == "Pollution" {
			meta = tb
		}
	}
	if meta.Cardinality != 11 {
		t.Errorf("cardinality after append: %d", meta.Cardinality)
	}
	rank, _ := meta.Attr("Rank")
	if rank.Max < 5000 {
		t.Errorf("numeric domain must widen: max=%d", rank.Max)
	}
	// The appended row is served (index rebuilt lazily).
	zip := value.NewString("10001")
	res, err := m.Execute("key1", catalog.AccessQuery{Table: "Pollution", Preds: []catalog.Pred{
		{Attr: "ZipCode", Eq: &zip},
		{Attr: "Rank", Lo: catalog.IntPtr(5000), Hi: catalog.IntPtr(5000)},
	}})
	if err != nil || res.Records != 1 {
		t.Errorf("appended row not served: %+v %v", res.Records, err)
	}
	// Row-width validation.
	if err := ds.Append("Pollution", []value.Row{{value.NewInt(1)}}); err == nil {
		t.Error("bad width append should error")
	}
}

func TestConcurrentExecutes(t *testing.T) {
	m := newTestMarket(t, 500)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				zip := value.NewString("10001")
				_, err := m.Execute("key1", catalog.AccessQuery{Table: "Pollution", Preds: []catalog.Pred{
					{Attr: "ZipCode", Eq: &zip},
					{Attr: "Rank", Lo: catalog.IntPtr(int64(g * 10)), Hi: catalog.IntPtr(int64(g*10 + 100))},
				}})
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	meter, _ := m.MeterOf("key1")
	if meter.Calls != 80 {
		t.Errorf("calls: %d, want 80", meter.Calls)
	}
}
