package payless

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// appendSetup builds a WHW market and returns the client plus a hook to
// append fresh weather rows server-side.
func appendSetup(t *testing.T, mutate func(*Config)) (*Client, func(n int) int64, *workload.WHW) {
	t.Helper()
	cfg := workload.WHWConfig{
		Seed: 9, Countries: 3, StationsPerCountry: 10, CitiesPerCountry: 3,
		Days: 20, StartDate: 20140601, Zips: 40, MaxRank: 100,
	}
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("a")
	ccfg := Config{
		Tables: append(m.ExportCatalog(), w.ZipMap),
		Caller: market.AccountCaller{Market: m, Key: "a"},
	}
	if mutate != nil {
		mutate(&ccfg)
	}
	client, err := Open(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	// appendRows inserts n new US weather records inside the existing date
	// window (in-window growth is what makes stale reuse observable).
	var appended int64
	appendRows := func(n int) int64 {
		var rows []value.Row
		for i := 0; i < n; i++ {
			rows = append(rows, value.Row{
				value.NewString("United States"),
				value.NewInt(1001), // existing station
				value.NewInt(w.Dates[i%len(w.Dates)]),
				value.NewFloat(99.9), // sentinel temperature
			})
		}
		ds := mustDataset(t, m, "WHW")
		if err := ds.Append("Weather", rows); err != nil {
			t.Fatal(err)
		}
		appended += int64(n)
		return appended
	}
	return client, appendRows, w
}

func mustDataset(t *testing.T, m *market.Market, name string) *market.Dataset {
	t.Helper()
	// The market API exposes datasets through AddDataset only; reach the
	// existing one via a tiny helper on the market.
	ds, ok := m.Dataset(name)
	if !ok {
		t.Fatalf("dataset %s not found", name)
	}
	return ds
}

func countRows(t *testing.T, c *Client, sql string) int {
	t.Helper()
	res, err := c.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// TestWeakConsistencyServesStaleAppends documents the §4.3 trade-off:
// under weak consistency a covered query is answered from the semantic
// store and misses rows appended later; under strong consistency every
// query refetches and sees them.
func TestWeakConsistencyServesStaleAppends(t *testing.T) {
	weak, appendWeak, w := appendSetup(t, nil)
	strong, appendStrong, _ := appendSetup(t, func(c *Config) { c.Consistency = Strong() })

	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[4])

	weakBefore := countRows(t, weak, sql)
	strongBefore := countRows(t, strong, sql)
	if weakBefore != strongBefore {
		t.Fatalf("baseline disagreement: %d vs %d", weakBefore, strongBefore)
	}

	appendWeak(5)
	appendStrong(5)

	weakAfter := countRows(t, weak, sql)
	strongAfter := countRows(t, strong, sql)
	if weakAfter != weakBefore {
		t.Errorf("weak consistency must serve the stored (stale) result: %d then %d", weakBefore, weakAfter)
	}
	if strongAfter != strongBefore+5 {
		t.Errorf("strong consistency must see appended rows: %d then %d", strongBefore, strongAfter)
	}
}

// TestWindowConsistencyRefetchesAfterCutoff: results older than the window
// are ignored, so the re-run pays again and picks up appended rows.
func TestWindowConsistencyRefetchesAfterCutoff(t *testing.T) {
	// A negative-duration window is in the past immediately: every stored
	// entry is older than the cutoff on the next query.
	client, appendRows, w := appendSetup(t, func(c *Config) { c.Consistency = Window(time.Nanosecond) })
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[4])
	before := countRows(t, client, sql)
	appendRows(5)
	time.Sleep(2 * time.Millisecond) // let the stored entry age past the window
	after := countRows(t, client, sql)
	if after != before+5 {
		t.Errorf("windowed client should refetch after the cutoff: %d then %d", before, after)
	}
}

// TestAppendValidation covers the market-side append errors.
func TestAppendValidation(t *testing.T) {
	_, appendRows, _ := appendSetup(t, nil)
	appendRows(1) // smoke: valid append works

	m := market.New()
	ds, _ := m.AddDataset("D", 100, 1)
	if err := ds.Append("Ghost", nil); err == nil {
		t.Error("append to unknown table should error")
	}
	if _, ok := m.Dataset("D"); !ok {
		t.Error("Dataset accessor")
	}
	if _, ok := m.Dataset("Nope"); ok {
		t.Error("Dataset accessor for unknown name")
	}
}

// TestConcurrentQueries exercises the client under parallel end users
// (paper Fig. 2: one PayLess serves all users of the organisation).
// Run with -race to validate the locking.
func TestConcurrentQueries(t *testing.T) {
	client, _, w := appendSetup(t, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				lo := w.Dates[(g+i)%10]
				hi := w.Dates[(g+i)%10+5]
				sql := fmt.Sprintf("SELECT COUNT(*) FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", lo, hi)
				if _, err := client.Query(sql); err != nil {
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
	if client.TotalSpend().Transactions <= 0 {
		t.Error("concurrent workload should have spent something")
	}
	if q := client.Metrics().Queries; q != 40 {
		t.Errorf("queries counted: %d, want 40", q)
	}
}
