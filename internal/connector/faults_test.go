package connector

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/overload"
)

// recordSleeps replaces the client's backoff sleep with a fake clock that
// records each requested duration without actually waiting.
func recordSleeps(c *Client) *[]time.Duration {
	var mu sync.Mutex
	slept := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*slept = append(*slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	return slept
}

func TestRetryAfterHonored(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"Calls":1,"Records":0,"Transactions":0,"Price":0}`))
	}))
	defer srv.Close()

	c := New(srv.URL, "k", WithRetries(2), WithBackoff(time.Millisecond, 2*time.Second))
	slept := recordSleeps(c)
	if _, err := c.Meter(); err != nil {
		t.Fatal(err)
	}
	// The server asked for 1s; with backoffMax 2s the request is honoured
	// exactly — no jitter, no exponential schedule.
	if len(*slept) != 1 || (*slept)[0] != time.Second {
		t.Fatalf("sleeps = %v, want exactly [1s]", *slept)
	}
}

func TestRetryAfterCappedByBackoffMax(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "3600")
			http.Error(w, "maintenance", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"Calls":1,"Records":0,"Transactions":0,"Price":0}`))
	}))
	defer srv.Close()

	c := New(srv.URL, "k", WithRetries(2), WithBackoff(time.Millisecond, 50*time.Millisecond))
	slept := recordSleeps(c)
	if _, err := c.Meter(); err != nil {
		t.Fatal(err)
	}
	// An hour-long Retry-After must not stall the client past its own cap.
	if len(*slept) != 1 || (*slept)[0] != 50*time.Millisecond {
		t.Fatalf("sleeps = %v, want exactly [50ms]", *slept)
	}
}

func TestParseRetryAfter(t *testing.T) {
	mk := func(v string) http.Header {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}
	if d := parseRetryAfter(mk("")); d != 0 {
		t.Fatalf("absent header: %v, want 0", d)
	}
	if d := parseRetryAfter(mk("7")); d != 7*time.Second {
		t.Fatalf("seconds form: %v, want 7s", d)
	}
	if d := parseRetryAfter(mk("-3")); d != 0 {
		t.Fatalf("negative seconds: %v, want 0", d)
	}
	if d := parseRetryAfter(mk("garbage")); d != 0 {
		t.Fatalf("unparseable: %v, want 0", d)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(mk(future)); d < 8*time.Second || d > 10*time.Second {
		t.Fatalf("HTTP-date form: %v, want ~10s", d)
	}
	past := time.Now().Add(-10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(mk(past)); d != 0 {
		t.Fatalf("past HTTP-date: %v, want 0", d)
	}
}

func TestMalformedBodyIsRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// A 200 whose body was truncated mid-flight.
			w.Write([]byte(`{"Calls":1,"Rec`))
			return
		}
		w.Write([]byte(`{"Calls":1,"Records":0,"Transactions":0,"Price":0}`))
	}))
	defer srv.Close()

	c := New(srv.URL, "k", WithRetries(2), fastBackoff())
	if _, err := c.Meter(); err != nil {
		t.Fatalf("truncated 200 body should be retried: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("attempts: %d, want 2", hits.Load())
	}
}

func TestCallIDStableAcrossRetriesAndPages(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(market.CallIDHeader))
		mu.Unlock()
		n := hits.Add(1)
		switch {
		case n == 1:
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		case r.URL.Query().Get("page") == "0":
			w.Write([]byte(`{"Calls":1,"Records":2,"Transactions":1,"Price":1,"Rows":[],"NextPage":1}`))
		default:
			w.Write([]byte(`{"Calls":1,"Records":2,"Transactions":1,"Price":1,"Rows":[],"NextPage":0}`))
		}
	}))
	defer srv.Close()

	c := New(srv.URL, "k", WithRetries(2), fastBackoff())
	if _, err := c.Call(context.Background(), catalog.AccessQuery{Dataset: "DS", Table: "T"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("requests: %d, want 3 (failed attempt + retry + page 1)", len(seen))
	}
	if seen[0] == "" {
		t.Fatal("data call carried no idempotency ID")
	}
	for i, id := range seen {
		if id != seen[0] {
			t.Fatalf("request %d changed call ID: %q vs %q — retries would be billed as new calls", i, id, seen[0])
		}
	}
}

// TestInheritedCallIDSentAndNotGrantedAgain: a call that arrives carrying
// an ID — federation assigns one above the transport — sends that ID, and,
// already funded by the layer that assigned it, does not deposit into the
// retry budget again.
func TestInheritedCallIDSentAndNotGrantedAgain(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(market.CallIDHeader); id != "assigned-above" {
			t.Errorf("%s header %q, want the inherited ID", market.CallIDHeader, id)
		}
		w.Write([]byte(`{"Calls":1,"Records":0,"Transactions":0,"Price":0,"Rows":[],"NextPage":0}`))
	}))
	defer srv.Close()

	c := New(srv.URL, "k", fastBackoff())
	b := overload.NewRetryBudget(0)
	ctx := overload.WithBudget(context.Background(), b)
	if _, err := c.Call(ctx, catalog.AccessQuery{Dataset: "DS", Table: "T", CallID: "assigned-above"}); err != nil {
		t.Fatal(err)
	}
	if _, granted, _, _ := b.Stats(); granted != 0 {
		t.Fatalf("inherited-ID call granted %v tokens, want 0", granted)
	}
}
