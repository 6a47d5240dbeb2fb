package bench

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	payless "payless"

	"payless/internal/connector"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// smallWHW is the 8-country weather market both scheduler gates of this
// file set run against: small enough for a unit test, wide enough that an
// IN over every country fans out to eight calls.
func smallWHW(t *testing.T) (*workload.WHW, *market.Market) {
	t.Helper()
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 8
	cfg.StationsPerCountry, cfg.CitiesPerCountry, cfg.Days, cfg.Zips = 5, 2, 10, 20
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	return w, m
}

// openWHWClient registers key on m and opens a fresh client over caller
// with the ZipMap loaded locally.
func openWHWClient(t *testing.T, w *workload.WHW, m *market.Market, key string, cfg payless.Config) *payless.Client {
	t.Helper()
	m.RegisterAccount(key)
	cfg.Tables = append(m.ExportCatalog(), w.ZipMap)
	c, err := payless.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFigConcurrencyBillsMatchAcrossLevels is the bench-scale gate of
// parallel fetching: a fan-out workload replayed over the HTTP transport,
// with latency injected into every call, bills the same transactions per
// query and in total at FetchConcurrency 1 and 4. The engine plans each
// batch up front and merges in plan order, so the worker pool may change
// only wall-clock time.
func TestFigConcurrencyBillsMatchAcrossLevels(t *testing.T) {
	w, m := smallWHW(t)
	inner := m.Handler()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		inner.ServeHTTP(rw, r)
	}))
	market.ConfigureServer(srv.Config)
	srv.Start()
	defer srv.Close()

	in := "'" + strings.Join(w.Countries, "', '") + "'"
	rng := rand.New(rand.NewSource(42))
	sqls := make([]string, 3)
	for i := range sqls {
		lo, hi := w.Dates[rng.Intn(len(w.Dates)/2)], w.Dates[len(w.Dates)/2+rng.Intn(len(w.Dates)/2)]
		sqls[i] = fmt.Sprintf("SELECT * FROM Weather WHERE Country IN (%s) AND Date >= %d AND Date <= %d", in, lo, hi)
	}

	bills := map[int][]int64{}
	for _, conc := range []int{1, 4} {
		key := fmt.Sprintf("conc-%d", conc)
		// SQR off: every query pays its full fan-out of calls.
		client := openWHWClient(t, w, m, key, payless.Config{
			Caller:           connector.New(srv.URL, key),
			Consistency:      payless.Strong(),
			FetchConcurrency: conc,
		})
		for _, sql := range sqls {
			res, err := client.Query(sql)
			if err != nil {
				t.Fatalf("conc=%d: %v\n%s", conc, err, sql)
			}
			bills[conc] = append(bills[conc], res.Report.Transactions)
		}
		meter, _ := m.MeterOf(key)
		if spend := client.TotalSpend().Transactions; meter.Transactions != spend {
			t.Fatalf("conc=%d: market metered %d transactions, client reports %d", conc, meter.Transactions, spend)
		}
	}
	for i := range sqls {
		if bills[4][i] != bills[1][i] {
			t.Errorf("query %d: billed %d at conc=4, %d at conc=1", i, bills[4][i], bills[1][i])
		}
		if bills[1][i] == 0 {
			t.Errorf("query %d bought nothing: the gate compares empty bills", i)
		}
	}
}
