package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/value"
)

// testMarket builds a one-table market with one registered account "acct".
func testMarket(t *testing.T) *market.Market {
	t.Helper()
	m := market.New()
	ds, err := m.AddDataset("DS", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta := &catalog.Table{
		Name:   "T",
		Schema: value.Schema{{Name: "K", Type: value.Int}, {Name: "V", Type: value.Int}},
		Attrs: []catalog.Attribute{
			{Name: "K", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 0, Max: 100},
			{Name: "V", Type: value.Int, Binding: catalog.Output, Class: catalog.NumericAttr},
		},
	}
	rows := make([]value.Row, 100)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i * 3))}
	}
	if err := ds.AddTable(meta, rows); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("acct")
	return m
}

func q(lo, hi int64) catalog.AccessQuery {
	return catalog.AccessQuery{Dataset: "DS", Table: "T",
		Preds: []catalog.Pred{{Attr: "K", Lo: &lo, Hi: &hi}}}
}

func TestScheduleDeterministic(t *testing.T) {
	decide := func(seed int64) []string {
		s := NewSchedule(seed).Rate(Reject, 0.2).Rate(Drop, 0.2)
		var out []string
		for i := 0; i < 200; i++ {
			kind, _, ok := s.next("k")
			if !ok {
				out = append(out, "-")
				continue
			}
			out = append(out, kind.String())
		}
		return out
	}
	a, b := decide(42), decide(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := decide(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-event schedules")
	}
	// The configured mix actually fires.
	s := NewSchedule(7).Rate(Reject, 0.25).Rate(Drop, 0.25)
	for i := 0; i < 400; i++ {
		s.next("k")
	}
	inj := s.Injected()
	if inj[Reject] == 0 || inj[Drop] == 0 {
		t.Fatalf("expected both kinds to fire: %v", inj)
	}
}

func TestTargetRuleFiresExactlyNTimes(t *testing.T) {
	s := NewSchedule(1).Target(func(key string) bool {
		return strings.Contains(key, "victim")
	}, Drop, 2)
	hits := 0
	for i := 0; i < 10; i++ {
		if _, _, ok := s.next("call-victim-7"); ok {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("rule fired %d times, want 2", hits)
	}
	if _, _, ok := s.next("other"); ok {
		t.Fatal("non-matching key was faulted")
	}
}

func TestDisarmStopsInjection(t *testing.T) {
	s := NewSchedule(1).Rate(Reject, 1.0)
	if _, _, ok := s.next("k"); !ok {
		t.Fatal("armed schedule at rate 1.0 must fire")
	}
	s.Disarm()
	if _, _, ok := s.next("k"); ok {
		t.Fatal("disarmed schedule must not fire")
	}
	s.Rearm()
	if _, _, ok := s.next("k"); !ok {
		t.Fatal("rearmed schedule must fire again")
	}
}

func TestCallerPreVsPostBillingFaults(t *testing.T) {
	m := testMarket(t)
	// Reject fires before the market sees the call: nothing billed.
	s := NewSchedule(1).Target(func(string) bool { return true }, Reject, 1)
	c := Caller{Inner: market.AccountCaller{Market: m, Key: "acct"}, Schedule: s}
	_, err := c.Call(context.Background(), q(0, 9))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	meter, _ := m.MeterOf("acct")
	if meter.Calls != 0 {
		t.Fatalf("pre-billing fault billed the call: %+v", meter)
	}
	// Drop fires after: the call bills, the result is lost.
	s.Target(func(string) bool { return true }, Drop, 1)
	if _, err := c.Call(context.Background(), q(0, 9)); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	meter, _ = m.MeterOf("acct")
	if meter.Calls != 1 {
		t.Fatalf("post-billing fault must bill exactly once: %+v", meter)
	}
}

func TestHandlerFaultsOnlyDataCalls(t *testing.T) {
	m := testMarket(t)
	s := NewSchedule(1).Rate(ServerError, 1.0)
	srv := httptest.NewServer(Handler(m.Handler(), s))
	defer srv.Close()

	get := func(path string) (int, string) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		req.Header.Set(market.AuthHeader, "acct")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1, err.Error()
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, _ := get("/v1/catalog"); code != http.StatusOK {
		t.Fatalf("catalog fetch must pass through clean, got %d", code)
	}
	if code, _ := get("/v1/data/DS/T?K.gte=0&K.lte=9&page=0"); code != http.StatusInternalServerError {
		t.Fatalf("data call should be faulted with 500, got %d", code)
	}
	meter, _ := m.MeterOf("acct")
	if meter.Calls != 0 {
		t.Fatalf("ServerError fires before billing: %+v", meter)
	}
}

func TestHandlerDropBillsThenSeversConnection(t *testing.T) {
	m := testMarket(t)
	s := NewSchedule(1).Target(func(string) bool { return true }, Drop, 1)
	srv := httptest.NewServer(Handler(m.Handler(), s))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/data/DS/T?K.gte=0&K.lte=9&page=0", nil)
	req.Header.Set(market.AuthHeader, "acct")
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("dropped connection should surface a transport error, got HTTP %d", resp.StatusCode)
	}
	meter, _ := m.MeterOf("acct")
	if meter.Calls != 1 {
		t.Fatalf("drop-after-billing must have billed the call: %+v", meter)
	}
}

func TestHandlerTruncateDeliversHalfBody(t *testing.T) {
	m := testMarket(t)
	s := NewSchedule(1).Target(func(string) bool { return true }, Truncate, 1)
	srv := httptest.NewServer(Handler(m.Handler(), s))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/data/DS/T?K.gte=0&K.lte=9&page=0", nil)
	req.Header.Set(market.AuthHeader, "acct")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("truncate should deliver headers + partial body: %v", err)
	}
	defer resp.Body.Close()
	body, readErr := io.ReadAll(resp.Body)
	if readErr == nil && len(body) == 0 {
		t.Fatal("expected a partial body or a read error")
	}
	// Either the read fails (severed mid-body) or the body is undecodable
	// half-JSON; both make the connector's attempt a retryable Fault.
	meter, _ := m.MeterOf("acct")
	if meter.Calls != 1 {
		t.Fatalf("truncate fires after billing: %+v", meter)
	}
}
