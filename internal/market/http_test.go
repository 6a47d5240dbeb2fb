package market

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"payless/internal/catalog"
	"payless/internal/value"
)

func newTestServer(t *testing.T, n int) (*httptest.Server, *Market) {
	t.Helper()
	return newTestServerFor(t, newTestMarket(t, n))
}

func newTestServerFor(t *testing.T, m *Market) (*httptest.Server, *Market) {
	t.Helper()
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return srv, m
}

func get(t *testing.T, srv *httptest.Server, path, key string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(AuthHeader, key)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHTTPDataCall(t *testing.T) {
	srv, _ := newTestServer(t, 250)
	resp, body := get(t, srv, "/v1/data/EHR/Pollution?Rank.gte=1&Rank.lte=1000", "key1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res, next, err := DecodeResultPage(body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 250 || res.Transactions != 3 || next != 0 {
		t.Errorf("records=%d trans=%d next=%d", res.Records, res.Transactions, next)
	}
	if len(res.Rows) != 250 || res.Rows[0][1].K != value.Int {
		t.Errorf("decoded rows: %d, kind %v", len(res.Rows), res.Rows[0][1].K)
	}
}

func TestHTTPEqualityParam(t *testing.T) {
	srv, _ := newTestServer(t, 40)
	resp, body := get(t, srv, "/v1/data/EHR/Pollution?ZipCode="+url.QueryEscape("10001"), "key1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if res, _, err := DecodeResultPage(body); err != nil || res.Records != 10 {
		t.Errorf("records=%d (%v), want 10", res.Records, err)
	}
}

func TestHTTPAuth(t *testing.T) {
	srv, _ := newTestServer(t, 5)
	for _, path := range []string{"/v1/catalog", "/v1/meter", "/v1/data/EHR/Pollution"} {
		resp, _ := get(t, srv, path, "wrong")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s with bad key: status %d", path, resp.StatusCode)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t, 5)
	resp, _ := get(t, srv, "/v1/data/EHR/Ghost", "key1")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown table: status %d", resp.StatusCode)
	}
	resp, _ = get(t, srv, "/v1/data/EHR/Pollution?Ghost=1", "key1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown attribute: status %d", resp.StatusCode)
	}
	resp, _ = get(t, srv, "/v1/data/EHR/Pollution?Rank.gte=abc", "key1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad range value: status %d", resp.StatusCode)
	}
	resp, _ = get(t, srv, "/v1/data/EHR/Pollution?Ghost.lte=5", "key1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown range attribute: status %d", resp.StatusCode)
	}
}

func TestHTTPCatalogAndMeter(t *testing.T) {
	srv, m := newTestServer(t, 30)
	resp, body := get(t, srv, "/v1/catalog", "key1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog status %d", resp.StatusCode)
	}
	var tables []WireTable
	if err := json.Unmarshal(body, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Name != "Pollution" || tables[0].TuplesPerTransaction != 100 {
		t.Errorf("catalog: %+v", tables)
	}
	ct, err := TableOfWire(tables[0])
	if err != nil {
		t.Fatal(err)
	}
	if ct.Cardinality != 30 || len(ct.Attrs) != 3 || ct.Attrs[0].Class != catalog.CategoricalAttr {
		t.Errorf("decoded table: %+v", ct)
	}

	// Spend something, then read the meter.
	m.Execute("key1", catalog.AccessQuery{Table: "Pollution"})
	resp, body = get(t, srv, "/v1/meter", "key1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("meter status %d", resp.StatusCode)
	}
	var meter Meter
	if err := json.Unmarshal(body, &meter); err != nil {
		t.Fatal(err)
	}
	if meter.Calls != 1 || meter.Records != 30 {
		t.Errorf("meter: %+v", meter)
	}
}

func TestWireRoundTrips(t *testing.T) {
	meta, rows := testTable(7)
	wt := WireTableOf(meta, 100)
	back, err := TableOfWire(wt)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != meta.Name || len(back.Attrs) != len(meta.Attrs) {
		t.Errorf("table round trip: %+v", back)
	}
	if back.Attrs[0].Domain[0].Str() != "10001" {
		t.Errorf("domain round trip: %v", back.Attrs[0].Domain)
	}

	res := Result{Schema: meta.Schema, Rows: rows, Records: len(rows), Transactions: 1, Price: 1}
	res2, _, err := DecodeResultPage(AppendResultPage(nil, res, 0, len(rows), 0))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Records != res.Records || len(res2.Rows) != len(res.Rows) {
		t.Errorf("result round trip: %+v", res2)
	}
	for i := range res.Rows {
		if !value.ExactKey.EqualRows(res.Rows[i], res2.Rows[i]) {
			t.Errorf("row %d: %v vs %v", i, res.Rows[i], res2.Rows[i])
		}
	}
}

func TestWireDecodeErrors(t *testing.T) {
	if _, err := value.ParseKind("banana"); err == nil {
		t.Error("ParseKind invalid")
	}
	if _, err := BindingOf("z"); err == nil {
		t.Error("BindingOf invalid")
	}
	if _, err := ClassOf("z"); err == nil {
		t.Error("ClassOf invalid")
	}
	// A valid page: one Int column "a" holding 5, one row, no bill, the
	// last page. Each case below spoils one part of it.
	const head, tail = "PLP\x01\x01\x01a\x01", "\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
	if res, _, err := DecodeResultPage([]byte(head + "\x01\x00\x0a" + tail)); err != nil || res.Rows[0][0] != value.NewInt(5) {
		t.Fatalf("the valid page: %v (%v)", res.Rows, err)
	}
	for what, body := range map[string]string{
		"a JSON body":                 `{"schema":[{"name":"a","type":"int"}],"rows":[["5"]]}`,
		"unknown kind":                "PLP\x01\x01\x01a\x07\x01\x00\x0a" + tail,
		"name not UTF-8":              "PLP\x01\x01\x01\xff\x01\x01\x00\x0a" + tail,
		"overlong varint":             head + "\x01\x00\x8a\x00" + tail,
		"more rows than bytes":        head + "\x80\x80\x80\x80\x80\x80\x01\x00\x0a" + tail,
		"rows of no columns":          "PLP\x01\x00\x01" + tail,
		"bitmap padding set":          head + "\x01\x02\x0a" + tail,
		"a value in a null column":    "PLP\x01\x01\x01a\x00\x01\x00" + tail,
		"a string that is not UTF-8":  "PLP\x01\x01\x01a\x03\x01\x00\x01\xff" + tail,
		"a string past the end":       "PLP\x01\x01\x01a\x03\x01\x00\x7f" + tail,
		"bytes after the page":        head + "\x01\x00\x0a" + tail + "\x00",
		"a page cut before its price": head + "\x01\x00\x0a\x01\x00\x00\x00",
	} {
		if _, _, err := DecodeResultPage([]byte(body)); err == nil {
			t.Error(what)
		}
	}
	if _, _, err := DecodeResultPage([]byte(`{"rows":[]}`)); !errors.Is(err, ErrNotAPage) {
		t.Errorf("a JSON body: %v, want ErrNotAPage", err)
	}
	if _, err := TableOfWire(WireTable{Columns: []WireColumn{{Name: "a", Type: "zzz"}}}); err == nil {
		t.Error("bad column type")
	}
	if _, err := TableOfWire(WireTable{Columns: []WireColumn{{Name: "a", Type: "int", Binding: "x"}}}); err == nil {
		t.Error("bad binding")
	}
	if _, err := TableOfWire(WireTable{Columns: []WireColumn{{Name: "a", Type: "int", Binding: "f", Class: "x"}}}); err == nil {
		t.Error("bad class")
	}
}
