package payless

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// testSetup builds a small WHW market plus a PayLess client.
func testSetup(t *testing.T, mutate func(*Config)) (*Client, *market.Market, *workload.WHW) {
	t.Helper()
	cfg := workload.WHWConfig{
		Seed: 7, Countries: 4, StationsPerCountry: 40, CitiesPerCountry: 8,
		Days: 30, StartDate: 20140601, Zips: 60, MaxRank: 100,
	}
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1.0); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("acct")
	tables := m.ExportCatalog()
	tables = append(tables, w.ZipMap)
	ccfg := Config{Tables: tables, Caller: market.AccountCaller{Market: m, Key: "acct"}}
	if mutate != nil {
		mutate(&ccfg)
	}
	client, err := Open(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	// Local table contents.
	if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	return client, m, w
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Error("missing caller should error")
	}
	m := market.New()
	m.RegisterAccount("a")
	if _, err := Open(Config{Caller: market.AccountCaller{Market: m, Key: "a"}}); err == nil {
		t.Error("missing tables should error")
	}
}

func TestSingleTableQueryCorrectAndPriced(t *testing.T) {
	client, _, w := testSetup(t, nil)
	country := "United States"
	lo, hi := w.Dates[2], w.Dates[8]
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = '%s' AND Date >= %d AND Date <= %d", country, lo, hi)
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Expected rows by brute force over the generated data.
	want := 0
	for _, r := range w.WeatherRows {
		if r[0].Str() == country && r[2].Int64() >= lo && r[2].Int64() <= hi {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	wantTrans := int64(math.Ceil(float64(want) / 100))
	if res.Report.Transactions != wantTrans {
		t.Errorf("transactions = %d, want %d", res.Report.Transactions, wantTrans)
	}

	// The same query again is answered fully from the semantic store.
	res2, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.Transactions != 0 || res2.Report.Calls != 0 {
		t.Errorf("repeat query must be free: %+v", res2.Report)
	}
	if len(res2.Rows) != want {
		t.Errorf("repeat rows = %d, want %d", len(res2.Rows), want)
	}
}

func TestOverlappingQueryPaysOnlyRemainder(t *testing.T) {
	client, _, w := testSetup(t, nil)
	c := "United States"
	q := func(loIdx, hiIdx int) string {
		return fmt.Sprintf("SELECT * FROM Weather WHERE Country = '%s' AND Date >= %d AND Date <= %d",
			c, w.Dates[loIdx], w.Dates[hiIdx])
	}
	first, err := client.Query(q(5, 12))
	if err != nil {
		t.Fatal(err)
	}
	// Extended range: only the two flanks are new. A fresh client paying
	// for the whole extended range sets the no-reuse price.
	second, err := client.Query(q(2, 15))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, _ := testSetup(t, nil)
	full, err := fresh.Query(q(2, 15))
	if err != nil {
		t.Fatal(err)
	}
	if second.Report.Transactions >= full.Report.Transactions {
		t.Errorf("overlap should cut the price below the no-reuse cost: reused=%d fresh=%d (first=%d)",
			second.Report.Transactions, full.Report.Transactions, first.Report.Transactions)
	}
	if len(full.Rows) == 0 {
		t.Fatal("extended range should return rows")
	}
}

func TestJoinQueryCorrectness(t *testing.T) {
	client, _, w := testSetup(t, nil)
	c := "United States"
	lo, hi := w.Dates[0], w.Dates[5]
	sql := fmt.Sprintf(
		"SELECT City, AVG(Temperature) AS avg_temp FROM Station, Weather "+
			"WHERE Station.Country = Weather.Country = '%s' AND Weather.Date >= %d AND Weather.Date <= %d "+
			"AND Station.StationID = Weather.StationID GROUP BY City", c, lo, hi)
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: avg temperature by city.
	type agg struct {
		sum float64
		n   int
	}
	cityOf := make(map[int64]string)
	for _, r := range w.StationRows {
		if r[0].Str() == c {
			cityOf[r[1].Int64()] = r[2].Str()
		}
	}
	expect := make(map[string]*agg)
	for _, r := range w.WeatherRows {
		if r[0].Str() != c || r[2].Int64() < lo || r[2].Int64() > hi {
			continue
		}
		city, ok := cityOf[r[1].Int64()]
		if !ok {
			continue
		}
		a := expect[city]
		if a == nil {
			a = &agg{}
			expect[city] = a
		}
		a.sum += r[3].Float64()
		a.n++
	}
	if len(res.Rows) != len(expect) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(expect))
	}
	for _, row := range res.Rows {
		city := row[0]
		got, _ := strconv.ParseFloat(row[1], 64)
		a := expect[city]
		if a == nil {
			t.Fatalf("unexpected city %s", city)
		}
		if math.Abs(got-a.sum/float64(a.n)) > 1e-9 {
			t.Errorf("city %s: avg %v, want %v", city, got, a.sum/float64(a.n))
		}
	}
}

func TestSeattleBindJoinExample(t *testing.T) {
	// The paper's Fig. 1 example: restricting to one city should be far
	// cheaper than scanning the whole country's weather (plan P2 vs P1).
	client, _, w := testSetup(t, nil)
	lo, hi := w.Dates[0], w.Dates[len(w.Dates)-1]
	sql := fmt.Sprintf(
		"SELECT Temperature FROM Station, Weather "+
			"WHERE City = 'Seattle' AND Station.Country = Weather.Country = 'United States' "+
			"AND Date >= %d AND Date <= %d AND Station.StationID = Weather.StationID", lo, hi)
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Count Seattle stations and country-wide weather rows.
	seattleStations := 0
	usStations := 0
	for _, r := range w.StationRows {
		if r[0].Str() == "United States" {
			usStations++
			if r[2].Str() == "Seattle" {
				seattleStations++
			}
		}
	}
	if seattleStations == 0 {
		t.Fatal("test data must place stations in Seattle")
	}
	countryTrans := int64(math.Ceil(float64(usStations*len(w.Dates)) / 100))
	if res.Report.Transactions >= countryTrans {
		t.Errorf("bind-join plan should beat the country scan: got %d, scan costs %d",
			res.Report.Transactions, countryTrans)
	}
	if len(res.Rows) != seattleStations*len(w.Dates) {
		t.Errorf("rows = %d, want %d", len(res.Rows), seattleStations*len(w.Dates))
	}
}

func TestFourWayJoinTemplateQ5(t *testing.T) {
	client, _, w := testSetup(t, nil)
	rng := rand.New(rand.NewSource(3))
	templates := w.Templates()
	sql := templates[4].Instantiate(rng) // Q5
	res, err := client.Query(sql)
	if err != nil {
		t.Fatalf("Q5 %s: %v", sql, err)
	}
	if res.Report.Transactions < 0 {
		t.Error("negative price")
	}
}

func TestAllTemplatesExecute(t *testing.T) {
	client, _, w := testSetup(t, nil)
	rng := rand.New(rand.NewSource(11))
	plans := 0
	for _, tpl := range w.Templates() {
		for i := 0; i < 3; i++ {
			sql := tpl.Instantiate(rng)
			res, err := client.Query(sql)
			if err != nil {
				t.Fatalf("%s instance %d (%s): %v", tpl.Name, i, sql, err)
			}
			plans += res.Counters.PlansEvaluated
		}
	}
	spend := client.TotalSpend()
	if spend.Transactions <= 0 {
		t.Error("workload should have cost something")
	}
	if q := client.Metrics().Queries; q != 15 || plans <= 0 {
		t.Errorf("search effort: %d plans evaluated, queries=%d", plans, q)
	}
}

func TestWithoutSQRRepeatsPay(t *testing.T) {
	client, _, w := testSetup(t, func(c *Config) { c.Consistency = Strong() })
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[5])
	r1, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Report.Transactions == 0 || r2.Report.Transactions != r1.Report.Transactions {
		t.Errorf("w/o SQR repeats must pay full price: %d then %d",
			r1.Report.Transactions, r2.Report.Transactions)
	}
}

func TestStrongConsistencyDisablesReuse(t *testing.T) {
	client, _, w := testSetup(t, func(c *Config) { c.Consistency = Strong() })
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])
	r1, _ := client.Query(sql)
	r2, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Report.Transactions != r1.Report.Transactions {
		t.Errorf("strong consistency must refetch: %d then %d", r1.Report.Transactions, r2.Report.Transactions)
	}
}

func TestMinimizeCallsPrefersFewCalls(t *testing.T) {
	mc, _, w := testSetup(t, func(c *Config) { c.MinimizeCalls = true })
	lo, hi := w.Dates[0], w.Dates[len(w.Dates)-1]
	sql := fmt.Sprintf(
		"SELECT Temperature FROM Station, Weather "+
			"WHERE City = 'Seattle' AND Station.Country = Weather.Country = 'United States' "+
			"AND Date >= %d AND Date <= %d AND Station.StationID = Weather.StationID", lo, hi)
	res, err := mc.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Minimizing calls picks the 2-call plan (P1): one Station call, one
	// country-wide Weather call — many transactions.
	if res.Report.Calls != 2 {
		t.Errorf("minimizing-calls plan should use 2 calls, used %d", res.Report.Calls)
	}
	payless, _, _ := testSetup(t, nil)
	res2, err := payless.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.Transactions >= res.Report.Transactions {
		t.Errorf("PayLess (%d trans) should beat Minimizing Calls (%d trans)",
			res2.Report.Transactions, res.Report.Transactions)
	}
}

func TestExplainDoesNotSpend(t *testing.T) {
	client, m, w := testSetup(t, nil)
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])
	res, err := client.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.EstTransactions <= 0 {
		t.Error("explain should estimate a positive price")
	}
	meter, _ := m.MeterOf("acct")
	if meter.Calls != 0 {
		t.Error("explain must not call the market")
	}
	if res.Plan == "" {
		t.Error("explain should render a plan")
	}
}

func TestLoadLocalValidation(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	if err := client.LoadLocal("Weather", nil); err == nil {
		t.Error("loading a market table locally should error")
	}
	if err := client.LoadLocal("Ghost", nil); err == nil {
		t.Error("loading an unknown table should error")
	}
}

func TestQueryErrors(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	if _, err := client.Query("not sql"); err == nil {
		t.Error("parse error expected")
	}
	if _, err := client.Query("SELECT * FROM Ghost"); err == nil {
		t.Error("bind error expected")
	}
}

func TestDownloadBeatenTwoOrders(t *testing.T) {
	// After a handful of small queries, PayLess's cumulative spend must be
	// far below downloading the referenced tables outright (Fig. 10a shape).
	client, _, w := testSetup(t, nil)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 10; i++ {
		sql := w.Templates()[0].Instantiate(rng) // Q1 instances
		if _, err := client.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	downloadAll := int64(math.Ceil(float64(len(w.WeatherRows)) / 100))
	if spend := client.TotalSpend().Transactions; spend >= downloadAll {
		t.Errorf("PayLess spend %d should be below download-all %d", spend, downloadAll)
	}
}

// value import is exercised above through workload rows; keep the
// compiler-visible dependency explicit.
var _ = value.NewInt
var _ = catalog.Free

func TestTablesIntrospection(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	tables := client.Tables()
	if len(tables) != 4 {
		t.Fatalf("tables: %d", len(tables))
	}
	byName := map[string]TableInfo{}
	for _, ti := range tables {
		byName[ti.Name] = ti
	}
	if !byName["ZipMap"].Local || byName["Weather"].Local {
		t.Error("locality flags")
	}
	if byName["Weather"].Dataset != "WHW" || byName["Pollution"].Dataset != "EHR" {
		t.Errorf("datasets: %+v", byName)
	}
	if !strings.Contains(byName["Weather"].BindingPattern, "Country^f") {
		t.Errorf("binding pattern: %s", byName["Weather"].BindingPattern)
	}
	if byName["Weather"].Cardinality <= 0 || len(byName["Weather"].Columns) != 4 {
		t.Errorf("weather info: %+v", byName["Weather"])
	}
}
