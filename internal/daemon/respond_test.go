package daemon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"payless"
	"payless/internal/daemon"
	"payless/internal/engine"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/tenant"
	"payless/internal/workload"
)

// TestQueryResponseIsEncodingJSON: the hand-appended 200 body is byte for
// byte what encoding/json's Encoder writes for the same QueryResponse, over
// texts that need escaping, empty and nil results, and prices on both sides
// of encoding/json's exponent cutoffs.
func TestQueryResponseIsEncodingJSON(t *testing.T) {
	texts := []string{
		"", "plain", `say "hi"`, `C:\path\`, "tab\tnl\nnul\x00esc\x1b", "<b>&amp;</b>",
		"bad \xff utf8 \xc3", "\u2028\u2029", "héllo ✓ 😀", "NULL",
	}
	results := []payless.Result{
		{},
		{Columns: []string{"a"}, Rows: [][]string{}},
		{Columns: []string{"a", "b"}, Rows: [][]string{nil, {}, {"x", "y"}}},
		{Columns: texts, Rows: [][]string{texts, texts[3:]}, Planner: "cached"},
	}
	for _, price := range []float64{0, math.Copysign(0, -1), 1, 0.25, 1.5e-7, 1e-6, 9.99e20, 1e21, 123456789.125, -2.5e-300, math.MaxFloat64} {
		results = append(results, payless.Result{
			Columns:         []string{"Price"},
			Rows:            [][]string{{fmt.Sprint(price)}},
			Report:          engine.Report{Calls: 3, Records: 250, Transactions: 7, Price: price},
			EstTransactions: math.MaxInt64,
			Planner:         "dp",
		})
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "Z", "0", " ", `"`, `\`, "<", ">", "&", "\x01", "\n", "\x7f", "\xff", "é", "\u2028", "😀"}
	word := func() string {
		var b strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 200; i++ {
		res := payless.Result{Report: engine.Report{Price: rng.ExpFloat64()}, Planner: word()}
		width := rng.Intn(4)
		for c := 0; c < width; c++ {
			res.Columns = append(res.Columns, word())
		}
		for r := rng.Intn(5); r > 0; r-- {
			row := make([]string, width)
			for c := range row {
				row[c] = word()
			}
			res.Rows = append(res.Rows, row)
		}
		results = append(results, res)
	}
	for i, res := range results {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(daemon.QueryResponse{
			Columns: res.Columns, Rows: res.Rows,
			Calls: res.Report.Calls, Records: res.Report.Records, Transactions: res.Report.Transactions,
			Price: res.Report.Price, EstTransactions: res.EstTransactions, Planner: res.Planner,
		}); err != nil {
			t.Fatal(err)
		}
		got, err := daemon.AppendQueryResponse([]byte("stale"), &res)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if string(got) != "stale"+want.String() {
			t.Fatalf("result %d:\n got %s\nwant %s", i, got[len("stale"):], want.Bytes())
		}
	}
	nan := payless.Result{Report: engine.Report{Price: math.NaN()}}
	if _, err := daemon.AppendQueryResponse(nil, &nan); err == nil {
		t.Fatal("a NaN price encoded; encoding/json refuses it")
	}
}

// TestOversizedBodyIs413: a body over the 1 MiB limit is refused before
// parse or spend, not cut to its first MiB and run. Here the first MiB is a
// valid statement whose last literal is cut short.
func TestOversizedBodyIs413(t *testing.T) {
	m := rangeMarket(t, "acct")
	reg, err := tenant.NewRegistry(0, tenant.Config{Name: "solo", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	client := openClient(t, m, "acct", payless.WithAdmitter(reg))
	defer client.Close()
	h := newDaemon(t, client, reg, nil).Handler()

	head := "SELECT v FROM T WHERE a"
	sql := head + strings.Repeat(" ", 1<<20-len(head)-len(" <= 1")) + " <= 150"
	if code, resp, rec := post(h, "k", sql[:1<<20]); code != http.StatusOK || len(resp.Rows) != 1 {
		t.Fatalf("the first MiB alone (a <= 1): HTTP %d, %s; want one row", code, rec.Body.String())
	}
	before := meterOf(t, m, "acct")
	if code, _, rec := post(h, "k", sql); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte body: HTTP %d, %s; want 413", len(sql), code, rec.Body.String())
	}
	if after := meterOf(t, m, "acct"); after != before {
		t.Errorf("the refused body billed: meter %+v, then %+v", before, after)
	}
}

// discardWriter is an http.ResponseWriter that keeps only the status and the
// body's length, so an allocation count is the handler's own.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestCoveredQueryAllocationsFlatInRows: a covered WHW Q1 through the
// daemon's handler allocates per query, not per cell: a 31-day range, 31
// times the rows of a 1-day one, costs the same allocations within 2, and
// both stay under the pin. The race detector adds allocations of its own,
// so the gate runs only without it.
func TestCoveredQueryAllocationsFlatInRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 7, Countries: 2, StationsPerCountry: 10, CitiesPerCountry: 4,
		Days: 40, StartDate: 20140601, Zips: 20, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1.0); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("acct")
	reg, err := tenant.NewRegistry(0, tenant.Config{Name: "solo", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	client, err := payless.Open(payless.Config{
		Tables: m.ExportCatalog(),
		Caller: market.AccountCaller{Market: m, Key: "acct"},
	}, payless.WithAdmitter(reg), payless.WithPlanCache(256))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	h := newDaemon(t, client, reg, nil).Handler()
	if code, _, rec := post(h, "k", "SELECT * FROM Weather"); code != http.StatusOK {
		t.Fatalf("buying Weather: HTTP %d: %s", code, rec.Body.String())
	}

	const pinned = 120
	measure := func(days int) (allocs float64, rows int) {
		sql := fmt.Sprintf("SELECT * FROM Weather WHERE Weather.Country = 'United States' AND Weather.Date >= %d AND Weather.Date <= %d",
			w.Dates[0], w.Dates[days-1])
		code, resp, rec := post(h, "k", sql) // compiles and caches the plan
		if code != http.StatusOK || resp.Transactions != 0 {
			t.Fatalf("%s: HTTP %d, %s; want a covered answer", sql, code, rec.Body.String())
		}
		rw := &discardWriter{header: http.Header{}}
		allocs = testing.AllocsPerRun(50, func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(sql))
			req.Header.Set("Authorization", "Bearer k")
			rw.code, rw.n = 0, 0
			h.ServeHTTP(rw, req)
		})
		if rw.code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", sql, rw.code)
		}
		return allocs, len(resp.Rows)
	}
	short, shortRows := measure(1)
	long, longRows := measure(31)
	t.Logf("%d rows: %v allocations; %d rows: %v allocations", shortRows, short, longRows, long)
	if longRows < 20*shortRows {
		t.Fatalf("%d and %d rows: the ranges do not differ enough to tell", shortRows, longRows)
	}
	if math.Abs(long-short) > 2 {
		t.Errorf("%d rows cost %v allocations, %d rows %v: not flat in the row count", shortRows, short, longRows, long)
	}
	if max(short, long) > pinned {
		t.Errorf("%v allocations per covered query, pinned at %d", max(short, long), pinned)
	}
}
