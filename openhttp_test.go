package payless

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// TestOpenHTTPEndToEnd runs the full RESTful path: registration over HTTP,
// catalog download, page-size discovery, queries through the connector, and
// billing agreement between buyer and seller.
func TestOpenHTTPEndToEnd(t *testing.T) {
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 4, Countries: 3, StationsPerCountry: 15, CitiesPerCountry: 3,
		Days: 15, StartDate: 20140601, Zips: 40, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 50, 2.0); err != nil { // t=50, $2
		t.Fatal(err)
	}
	m.RegisterAccount("org")
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	client, err := OpenHTTP(srv.URL, "org", []*catalog.Table{w.ZipMap})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}

	// The page size t=50 must have been discovered from the catalog:
	// pricing below uses ceil(records/50) * $2.
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[9])
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	records := res.Report.Records
	wantTrans := (records + 49) / 50
	if res.Report.Transactions != wantTrans {
		t.Errorf("t=50 pricing: %d transactions for %d records, want %d",
			res.Report.Transactions, records, wantTrans)
	}
	if res.Report.Price != float64(wantTrans)*2 {
		t.Errorf("price at $2/transaction: %v", res.Report.Price)
	}
	// Buyer-side report equals seller-side meter.
	meter, _ := m.MeterOf("org")
	if meter.Transactions != res.Report.Transactions || meter.Price != res.Report.Price {
		t.Errorf("meter %+v vs report %+v", meter, res.Report)
	}
	// Reuse works across the HTTP path too.
	res2, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.Transactions != 0 {
		t.Errorf("repeat over HTTP should be free: %+v", res2.Report)
	}
	// The join templates run over HTTP as well.
	res3, err := client.Query(fmt.Sprintf(
		"SELECT City, AVG(Temperature) FROM Station, Weather "+
			"WHERE Station.Country = Weather.Country = 'United States' AND Weather.Date >= %d AND Weather.Date <= %d "+
			"AND Station.StationID = Weather.StationID GROUP BY City",
		w.Dates[0], w.Dates[4]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Rows) == 0 {
		t.Error("join over HTTP returned nothing")
	}
}

// registrationMarket is the WHW workload's market (datasets WHW and EHR)
// at t=50 plus a one-table dataset at t=7, served behind a handler that counts catalog requests and answers
// the first refuse of them 503.
func registrationMarket(t *testing.T, refuse int64) (srv *httptest.Server, catalogs *atomic.Int64) {
	t.Helper()
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 4, Countries: 2, StationsPerCountry: 4, CitiesPerCountry: 2,
		Days: 3, StartDate: 20140601, Zips: 10, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 50, 2.0); err != nil {
		t.Fatal(err)
	}
	ds, err := m.AddDataset("EXTRA", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta := &catalog.Table{
		Name:   "Extra",
		Schema: value.Schema{{Name: "K", Type: value.Int}},
		Attrs:  []catalog.Attribute{{Name: "K", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 9}},
	}
	if err := ds.AddTable(meta, []value.Row{{value.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("org")
	inner := m.Handler()
	catalogs = new(atomic.Int64)
	srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/catalog" && catalogs.Add(1) <= refuse {
			http.Error(rw, "busy", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)
	return srv, catalogs
}

// TestOpenHTTPReadsTheCatalogOnce: registration learns the tables and every
// dataset's page size from one catalog request.
func TestOpenHTTPReadsTheCatalogOnce(t *testing.T) {
	srv, catalogs := registrationMarket(t, 0)
	client, err := OpenHTTP(srv.URL, "org", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if n := catalogs.Load(); n != 1 {
		t.Errorf("OpenHTTP made %d catalog requests, want 1", n)
	}
	if tpt := client.cfg.TuplesPerTransaction; len(tpt) != 3 || tpt["WHW"] != 50 || tpt["EHR"] != 50 || tpt["EXTRA"] != 7 {
		t.Errorf("page sizes %v, want WHW 50, EHR 50 and EXTRA 7", tpt)
	}
}

// TestOpenHTTPRegistersInOneAttempt: registration is attempted once. A
// market that refuses it fails OpenHTTP after one request; OpenFederated
// moves on to the next endpoint, which is its only failover.
func TestOpenHTTPRegistersInOneAttempt(t *testing.T) {
	busy, busyCatalogs := registrationMarket(t, 1)
	if _, err := OpenHTTP(busy.URL, "org", nil); err == nil {
		t.Fatal("OpenHTTP succeeded against a market that refused registration")
	}
	if n := busyCatalogs.Load(); n != 1 {
		t.Fatalf("OpenHTTP made %d catalog requests, want 1: registration was retried", n)
	}

	down, downCatalogs := registrationMarket(t, 1)
	up, upCatalogs := registrationMarket(t, 0)
	client, err := OpenFederated([]MarketEndpoint{{Name: "down", BaseURL: down.URL, AccountKey: "org"},
		{Name: "up", BaseURL: up.URL, AccountKey: "org"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if d, u := downCatalogs.Load(), upCatalogs.Load(); d != 1 || u != 1 {
		t.Fatalf("catalog requests: %d at the refusing endpoint, %d at the next; want 1 and 1", d, u)
	}
}
