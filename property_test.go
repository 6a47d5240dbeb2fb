package payless

// Cross-cutting property tests: randomized workloads checked against
// system-level invariants rather than fixed expectations.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// TestPropertySpendNeverExceedsNoReuse: for any random query sequence, a
// reusing client never pays more per query than a fresh client asking the
// same question (SQR can only remove work), and total reusing spend never
// exceeds total non-reusing spend.
func TestPropertySpendNeverExceedsNoReuse(t *testing.T) {
	cfg := workload.WHWConfig{
		Seed: 5, Countries: 4, StationsPerCountry: 25, CitiesPerCountry: 4,
		Days: 30, StartDate: 20140601, Zips: 100, MaxRank: 100,
	}
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	tables := append(m.ExportCatalog(), w.ZipMap)
	mk := func(key string, disableSQR bool) *Client {
		m.RegisterAccount(key)
		cfg := Config{Tables: tables, Caller: market.AccountCaller{Market: m, Key: key}}
		if disableSQR {
			cfg.Consistency = Strong()
		}
		c, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
			t.Fatal(err)
		}
		return c
	}
	reusing := mk("reuse", false)
	raw := mk("raw", true)

	queries := workload.Mix(w.Templates(), 4, 13)
	var reuseTotal, rawTotal int64
	for i, sql := range queries {
		r1, err := reusing.Query(sql)
		if err != nil {
			t.Fatalf("reuse query %d: %v", i, err)
		}
		r2, err := raw.Query(sql)
		if err != nil {
			t.Fatalf("raw query %d: %v", i, err)
		}
		reuseTotal += r1.Report.Transactions
		rawTotal += r2.Report.Transactions
		if len(r1.Rows) != len(r2.Rows) {
			t.Fatalf("query %d: row counts diverge (%d vs %d)\n%s", i, len(r1.Rows), len(r2.Rows), sql)
		}
	}
	if reuseTotal > rawTotal {
		t.Errorf("reuse (%d) must not exceed raw (%d) in total", reuseTotal, rawTotal)
	}
}

// TestPropertyMeterMatchesClientReports: the seller-side meter always
// equals the sum of the buyer-side per-query reports — billing never drifts.
func TestPropertyMeterMatchesClientReports(t *testing.T) {
	client, m, w := testSetup(t, nil)
	rng := rand.New(rand.NewSource(19))
	var sum int64
	for i := 0; i < 12; i++ {
		tpl := w.Templates()[rng.Intn(5)]
		res, err := client.Query(tpl.Instantiate(rng))
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Report.Transactions
		meter, _ := m.MeterOf("acct")
		if meter.Transactions != sum {
			t.Fatalf("after query %d: meter %d, reports sum %d", i, meter.Transactions, sum)
		}
	}
	if got := client.TotalSpend().Transactions; got != sum {
		t.Errorf("TotalSpend %d, reports sum %d", got, sum)
	}
}

// TestPropertyStoredRowsNeverExceedTable: dedup in the semantic store means
// owned rows can never exceed the table's true cardinality, no matter how
// much overlapping buying the workload does.
func TestPropertyStoredRowsNeverExceedTable(t *testing.T) {
	client, _, w := testSetup(t, nil)
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 15; i++ {
		lo := rng.Intn(len(w.Dates) - 5)
		sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
			w.Dates[lo], w.Dates[lo+4])
		if _, err := client.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	usRows := 0
	for _, r := range w.WeatherRows {
		if r[0].Str() == "United States" {
			usRows++
		}
	}
	if got := client.store.StoredRowCount("Weather"); got > usRows {
		t.Errorf("stored %d rows exceeds the %d US rows ever touchable", got, usRows)
	}
}

// TestPropertyEstimateConvergence: repeating a fixed template with learning
// statistics drives the price-estimation error to zero once the data is
// known.
func TestPropertyEstimateConvergence(t *testing.T) {
	client, _, w := testSetup(t, nil)
	stmt, err := client.Prepare("SELECT * FROM Weather WHERE Country = ? AND Date >= ? AND Date <= ?")
	if err != nil {
		t.Fatal(err)
	}
	// Warm up on one country.
	if _, err := stmt.Query("Country01", w.Dates[0], w.Dates[15]); err != nil {
		t.Fatal(err)
	}
	// A sub-range is now exactly known: estimate equals the actual rows.
	res, err := client.Explain(fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country = 'Country01' AND Date >= %d AND Date <= %d",
		w.Dates[2], w.Dates[9]))
	if err != nil {
		t.Fatal(err)
	}
	if res.EstTransactions != 0 {
		t.Errorf("covered sub-range must estimate 0 transactions, got %d", res.EstTransactions)
	}
	// A fresh adjacent range estimates within the ballpark of its actual
	// price after the total-cardinality feedback.
	actualRows := 0
	for _, r := range w.WeatherRows {
		if r[0].Str() == "Country02" && r[2].Int64() >= w.Dates[0] && r[2].Int64() <= w.Dates[15] {
			actualRows++
		}
	}
	res2, err := client.Explain(fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country = 'Country02' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[15]))
	if err != nil {
		t.Fatal(err)
	}
	actualTrans := math.Ceil(float64(actualRows) / 100)
	if est := float64(res2.EstTransactions); est > 5*actualTrans+2 || est < actualTrans/5-2 {
		t.Errorf("estimate %v far from actual %v", est, actualTrans)
	}
}
