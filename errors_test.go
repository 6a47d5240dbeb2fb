package payless

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/connector"
	"payless/internal/engine"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

func errorSetup(t *testing.T) (*Client, *workload.WHW) {
	t.Helper()
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 5, Countries: 2, StationsPerCountry: 8, CitiesPerCountry: 2,
		Days: 8, StartDate: 20140601, Zips: 20, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("err")
	client, err := Open(Config{
		Tables: append(m.ExportCatalog(), w.ZipMap),
		Caller: market.AccountCaller{Market: m, Key: "err"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	return client, w
}

// TestErrorTaxonomy pins the typed error API: each pipeline stage fails
// with a *QueryError that matches its sentinel via errors.Is, carries the
// stage, and keeps the historical "payless: <stage>: ..." message shape.
func TestErrorTaxonomy(t *testing.T) {
	client, _ := errorSetup(t)

	cases := []struct {
		name     string
		sql      string
		sentinel error
		stage    Stage
	}{
		{"parse", "SELEKT * FROM Weather", ErrParse, StageParse},
		{"bind", "SELECT * FROM NoSuchTable", ErrBind, StageBind},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := client.Query(tc.sql)
			if err == nil {
				t.Fatal("expected error")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			var qe *QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("errors.As *QueryError failed: %v", err)
			}
			if qe.Stage != tc.stage {
				t.Errorf("stage %q, want %q", qe.Stage, tc.stage)
			}
			if want := "payless: " + string(tc.stage) + ": "; !strings.HasPrefix(err.Error(), want) {
				t.Errorf("message %q must keep the %q prefix", err.Error(), want)
			}
			// Sentinels are mutually exclusive.
			for _, other := range []error{ErrParse, ErrBind, ErrOptimize, ErrExecute} {
				if other != tc.sentinel && errors.Is(err, other) {
					t.Errorf("%v must not match %v", err, other)
				}
			}
			// Explain fails identically.
			if _, eErr := client.Explain(tc.sql); !errors.Is(eErr, tc.sentinel) {
				t.Errorf("Explain: errors.Is(%v, %v) = false", eErr, tc.sentinel)
			}
		})
	}
}

// TestOptimizeErrorMatchesSentinel drives the optimizer into "no valid
// plan": a table whose binding pattern requires K bound, queried without
// binding K, cannot be planned.
func TestOptimizeErrorMatchesSentinel(t *testing.T) {
	locked := &catalog.Table{
		Dataset: "D",
		Name:    "Locked",
		Schema:  value.Schema{{Name: "K", Type: value.Int}, {Name: "V", Type: value.Int}},
		Attrs: []catalog.Attribute{
			{Name: "K", Type: value.Int, Binding: catalog.Bound, Class: catalog.NumericAttr, Min: 0, Max: 9},
			{Name: "V", Type: value.Int, Binding: catalog.Output},
		},
		Cardinality:         10,
		PricePerTransaction: 1,
	}
	m := market.New()
	m.RegisterAccount("opt")
	client, err := Open(Config{
		Tables: []*catalog.Table{locked},
		Caller: market.AccountCaller{Market: m, Key: "opt"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Query("SELECT * FROM Locked")
	if !errors.Is(err, ErrOptimize) {
		t.Fatalf("want ErrOptimize, got %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Stage != StageOptimize {
		t.Errorf("QueryError stage: %v", err)
	}
	if !strings.HasPrefix(err.Error(), "payless: optimize: ") {
		t.Errorf("message %q", err.Error())
	}
}

// TestExecuteErrorWrapsStatusError runs a query against a live market with
// a wrong account key: the resulting failure must match ErrExecute and
// expose the HTTP 401 through errors.As on *StatusError.
func TestExecuteErrorWrapsStatusError(t *testing.T) {
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 5, Countries: 2, StationsPerCountry: 8, CitiesPerCountry: 2,
		Days: 8, StartDate: 20140601, Zips: 20, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	// No account registered: every data call is rejected with 401.
	client, err := Open(Config{
		Tables: m.ExportCatalog(),
		Caller: connector.New(srv.URL, "who"),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Query(fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3]))
	if !errors.Is(err, ErrExecute) {
		t.Fatalf("want ErrExecute, got %v", err)
	}
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("errors.As *StatusError failed: %v", err)
	}
	if se.Code != http.StatusUnauthorized {
		t.Errorf("status %d, want 401", se.Code)
	}
}

// TestBatchErrorCarriesIndex pins batch failures: typed, positioned, and
// stage-matchable, with the historical message format.
func TestBatchErrorCarriesIndex(t *testing.T) {
	client, w := errorSetup(t)
	good := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])
	_, err := client.QueryBatch([]string{good, "SELEKT nope"})
	if err == nil {
		t.Fatal("expected error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("errors.As *BatchError failed: %v", err)
	}
	if be.Index != 1 {
		t.Errorf("index %d, want 1", be.Index)
	}
	if !errors.Is(err, ErrParse) {
		t.Errorf("batch parse failure must match ErrParse: %v", err)
	}
	if !strings.HasPrefix(err.Error(), "payless: batch statement 1: parse: ") {
		t.Errorf("message %q", err.Error())
	}
}

// TestInvalidStatementBillsNothing: a statement with a column reference that
// cannot answer — unknown, ambiguous, or not in the output — fails at bind,
// through Query, Explain and QueryBatch, before anything is bought.
func TestInvalidStatementBillsNothing(t *testing.T) {
	_, _, w := testSetup(t, nil)
	where := fmt.Sprintf(" WHERE Weather.Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[0], w.Dates[3])
	join := " FROM Station, Weather" + where + " AND Station.StationID = Weather.StationID"
	noSpend := func(t *testing.T, client *Client, m *market.Market) {
		t.Helper()
		if meter, _ := m.MeterOf("acct"); meter != (market.Meter{}) {
			t.Errorf("market meter %+v, want nothing billed", meter)
		}
		if spent := client.TotalSpend(); spent != (engine.Report{}) {
			t.Errorf("TotalSpend %+v, want 0", spent)
		}
	}
	for _, sql := range []string{
		"SELECT NoSuchCol FROM Weather" + where,
		"SELECT COUNT(*) FROM Weather" + where + " GROUP BY NoSuchCol",
		"SELECT SUM(NoSuchCol) FROM Weather" + where,
		"SELECT X.Temperature FROM Weather W" + strings.ReplaceAll(where, "Weather.", "W."),
		"SELECT Country" + join,
		"SELECT City" + join + " ORDER BY Temperature",
		"SELECT City" + join + " HAVING City > 'A'",
		"SELECT City, COUNT(*)" + join + " GROUP BY City HAVING NoSuchCol > 1",
	} {
		client, m, _ := testSetup(t, nil)
		if _, err := client.Query(sql); !errors.Is(err, ErrBind) {
			t.Errorf("Query(%q) = %v, want ErrBind", sql, err)
		}
		if _, err := client.Explain(sql); !errors.Is(err, ErrBind) {
			t.Errorf("Explain(%q) = %v, want ErrBind", sql, err)
		}
		noSpend(t, client, m)
	}
	client, m, _ := testSetup(t, nil)
	_, err := client.QueryBatch([]string{"SELECT AVG(Temperature) FROM Weather" + where, "SELECT NoSuchCol FROM Weather" + where})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 || !errors.Is(err, ErrBind) {
		t.Errorf("QueryBatch = %v, want a bind error at statement 1", err)
	}
	noSpend(t, client, m)
}
