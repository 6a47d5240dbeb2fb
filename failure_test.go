package payless

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// flakyCaller fails every call once armed, simulating a market outage. It
// is mutex-guarded: the engine's fetch pool may call it from many
// goroutines.
type flakyCaller struct {
	inner    market.Caller
	mu       sync.Mutex
	failFrom int // fail calls with sequence number >= failFrom; -1 = never
	calls    int
}

var errMarketDown = errors.New("market unavailable")

func (f *flakyCaller) arm(failFrom int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failFrom = failFrom
}

func (f *flakyCaller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	f.mu.Lock()
	f.calls++
	down := f.failFrom >= 0 && f.calls >= f.failFrom
	f.mu.Unlock()
	if down {
		return market.Result{}, errMarketDown
	}
	return f.inner.Call(ctx, q)
}

func flakySetup(t *testing.T) (*Client, *flakyCaller, *workload.WHW) {
	t.Helper()
	cfg := workload.WHWConfig{
		Seed: 7, Countries: 4, StationsPerCountry: 40, CitiesPerCountry: 8,
		Days: 30, StartDate: 20140601, Zips: 60, MaxRank: 100,
	}
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("acct")
	fc := &flakyCaller{inner: market.AccountCaller{Market: m, Key: "acct"}, failFrom: -1}
	client, err := Open(Config{
		Tables: append(m.ExportCatalog(), w.ZipMap),
		Caller: fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	return client, fc, w
}

func TestMarketOutageSurfacesError(t *testing.T) {
	client, fc, w := flakySetup(t)
	fc.arm(1) // down from the first call
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[5])
	if _, err := client.Query(sql); !errors.Is(err, errMarketDown) {
		t.Fatalf("outage must surface: %v", err)
	}
	// Recovery: the same client works once the market is back.
	fc.arm(-1)
	if _, err := client.Query(sql); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
}

func TestMidPlanFailureKeepsPartialResults(t *testing.T) {
	client, fc, w := flakySetup(t)
	// A bind-join query issues a Station call plus bind calls for Seattle
	// stations; fail from the second market call, mid-plan.
	sql := fmt.Sprintf(
		"SELECT Temperature FROM Station, Weather "+
			"WHERE City = 'Seattle' AND Station.Country = Weather.Country = 'United States' "+
			"AND Date >= %d AND Date <= %d AND Station.StationID = Weather.StationID",
		w.Dates[0], w.Dates[29])
	fc.arm(2)
	if _, err := client.Query(sql); !errors.Is(err, errMarketDown) {
		t.Fatalf("mid-plan outage must surface: %v", err)
	}
	spentDuringFailure := client.TotalSpend()
	// What was fetched before the failure is in the semantic store...
	if client.store.StoredRowCount("Station") == 0 && client.store.StoredRowCount("Weather") == 0 {
		t.Fatal("partial results should be retained")
	}
	// ...so the retry pays only for the missing part, and the final answer
	// is complete and correct.
	fc.arm(-1)
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	seattle := 0
	for _, r := range w.StationRows {
		if r[0].Str() == "United States" && r[2].Str() == "Seattle" {
			seattle++
		}
	}
	if len(res.Rows) != seattle*30 {
		t.Errorf("retry result incomplete: %d rows, want %d", len(res.Rows), seattle*30)
	}
	// Note: spentDuringFailure counts billed calls that succeeded before the
	// outage; nothing fetched then is re-billed on retry, so total spend is
	// below 2x the clean-run price.
	clean, fcClean, _ := flakySetup(t)
	_ = fcClean
	cleanRes, err := clean.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	totalSpend := client.TotalSpend().Transactions
	cleanSpend := cleanRes.Report.Transactions
	if totalSpend > cleanSpend+spentDuringFailure.Transactions {
		t.Errorf("retry re-billed already-owned data: total %d, clean %d, pre-failure %d",
			totalSpend, cleanSpend, spentDuringFailure.Transactions)
	}
}

func TestHTTPMarketDownOnOpen(t *testing.T) {
	if _, err := OpenHTTP("http://127.0.0.1:1", "k", nil); err == nil {
		t.Fatal("unreachable market must fail registration")
	}
}
