package connector_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/connector"
	"payless/internal/federation"
	"payless/internal/market"
	"payless/internal/value"
)

// The connector makes one attempt per request and returns a retryable
// failure as a *connector.Fault; the federation layer retries it. These
// tests drive a Client the way every client does — as the one endpoint of
// a federation — with a millisecond backoff.

// retrying puts c behind a federation of one endpoint that makes up to
// attempts attempts per result page, backing off 1 → max.
func retrying(t *testing.T, c *connector.Client, attempts int, max time.Duration) *federation.Caller {
	t.Helper()
	f, err := federation.New([]federation.Endpoint{{Name: "m", Caller: c}}, federation.Config{
		Retry: federation.Retry{Attempts: attempts, Base: time.Millisecond, Max: max},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// dataQ is a data call on a table the test servers below answer for.
var dataQ = catalog.AccessQuery{Dataset: "DS", Table: "T"}

// emptyPage is the wire body of a one-page result with no rows.
var emptyPage = market.AppendResultPage(nil, market.Result{}, 0, 0, 0)

func TestPermanent4xxFailsFastWithoutRetry(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"Error":"malformed call"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	_, err := retrying(t, connector.New(srv.URL, "k"), 6, 2*time.Millisecond).Call(context.Background(), dataQ)
	if err == nil {
		t.Fatal("400 must surface an error")
	}
	var se *connector.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("want StatusError 400, got %v", err)
	}
	// A permanent client error must not be re-issued: every accepted call
	// is billed, so retrying a 400 could re-bill a broken request forever.
	if hits.Load() != 1 {
		t.Fatalf("400 was retried: %d attempts, want 1", hits.Load())
	}
}

func TestRetryable5xxRecovers(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.Write(emptyPage)
	}))
	defer srv.Close()

	if _, err := retrying(t, connector.New(srv.URL, "k"), 4, 2*time.Millisecond).Call(context.Background(), dataQ); err != nil {
		t.Fatalf("5xx should be retried to success: %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("attempts: %d, want 3", hits.Load())
	}
}

func TestTooManyRequestsIsRetryable(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		w.Write(emptyPage)
	}))
	defer srv.Close()

	if _, err := retrying(t, connector.New(srv.URL, "k"), 3, 2*time.Millisecond).Call(context.Background(), dataQ); err != nil {
		t.Fatalf("429 should be retried: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("attempts: %d, want 2", hits.Load())
	}
}

func TestClientRetriesTransportErrors(t *testing.T) {
	var hits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// Kill the connection to force a transport error.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		w.Write(emptyPage)
	}))
	defer flaky.Close()

	if _, err := retrying(t, connector.New(flaky.URL, "k"), 3, 2*time.Millisecond).Call(context.Background(), dataQ); err != nil {
		t.Errorf("retry should recover: %v", err)
	}
	if hits.Load() != 2 {
		t.Errorf("attempts: %d", hits.Load())
	}
}

func TestMalformedBodyIsRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// A 200 whose body was truncated mid-flight.
			w.Write(emptyPage[:len(emptyPage)-1])
			return
		}
		w.Write(emptyPage)
	}))
	defer srv.Close()

	if _, err := retrying(t, connector.New(srv.URL, "k"), 3, 2*time.Millisecond).Call(context.Background(), dataQ); err != nil {
		t.Fatalf("truncated 200 body should be retried: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("attempts: %d, want 2", hits.Load())
	}
}

func TestContextCancellationStopsRetrying(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		time.Sleep(200 * time.Millisecond)
		w.Write(emptyPage)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := retrying(t, connector.New(srv.URL, "k"), 6, 2*time.Millisecond).Call(ctx, dataQ)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("cancellation ignored: took %v", elapsed)
	}
	if hits.Load() != 1 {
		t.Fatalf("cancelled call kept retrying: %d attempts", hits.Load())
	}
}

func TestPerCallTimeoutRetriesSlowAttempts(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			time.Sleep(150 * time.Millisecond) // first attempt exceeds the per-call deadline
		}
		w.Write(emptyPage)
	}))
	defer srv.Close()

	c := connector.New(srv.URL, "k")
	connector.SetPerCallTimeout(c, 30*time.Millisecond)
	if _, err := retrying(t, c, 3, 2*time.Millisecond).Call(context.Background(), dataQ); err != nil {
		t.Fatalf("slow attempt should retry under fresh deadline: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("attempts: %d, want 2", hits.Load())
	}
}

func TestRetryAfterHonored(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		w.Write(emptyPage)
	}))
	defer srv.Close()

	start := time.Now()
	if _, err := retrying(t, connector.New(srv.URL, "k"), 3, 10*time.Second).Call(context.Background(), dataQ); err != nil {
		t.Fatal(err)
	}
	// The server asked for 1s; with a 10s cap the request is honoured as
	// given — not the millisecond backoff, not the cap.
	if elapsed := time.Since(start); elapsed < time.Second || elapsed >= 5*time.Second {
		t.Fatalf("retry after %v, want the announced 1s", elapsed)
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
		w.Write(emptyPage)
	}))
	defer srv.Close()

	start := time.Now()
	if _, err := retrying(t, connector.New(srv.URL, "k"), 3, 50*time.Millisecond).Call(context.Background(), dataQ); err != nil {
		t.Fatal(err)
	}
	// An hour-long Retry-After must not stall the client past its own cap,
	// and the cap, not the 1ms backoff, is what it waits.
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("retry after %v, want the 50ms cap", elapsed)
	}
}

// TestRetryAfterWaitAbortsOnCancel: a retry wait ends the moment the
// caller's context does. The server announces a 60s Retry-After, which the
// 120s cap lets stand; the caller hangs up while the retry waits, and the
// call must return at once, without a second attempt.
func TestRetryAfterWaitAbortsOnCancel(t *testing.T) {
	var hits atomic.Int64
	arrived := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "60")
		http.Error(w, "come back later", http.StatusTooManyRequests)
		select {
		case arrived <- struct{}{}:
		default:
		}
	}))
	defer srv.Close()

	f := retrying(t, connector.New(srv.URL, "k"), 4, 120*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.Call(ctx, dataQ)
		errc <- err
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the call never reached the market")
	}
	time.Sleep(20 * time.Millisecond) // let the Fault reach the retry wait
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("abort took %v — the wait was slept out, not aborted", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call still waiting: the Retry-After wait was not aborted")
	}
	if hits.Load() != 1 {
		t.Fatalf("%d attempts, want 1: the 60s Retry-After was not waited", hits.Load())
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
			w.Write(market.AppendResultPage(nil, market.Result{Records: 2, Transactions: 1, Price: 1}, 0, 0, 1))
		default:
			w.Write(market.AppendResultPage(nil, market.Result{Records: 2}, 0, 0, 0))
		}
	}))
	defer srv.Close()

	if _, err := retrying(t, connector.New(srv.URL, "k"), 3, 2*time.Millisecond).Call(context.Background(), dataQ); err != nil {
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

// TestFaultResumesAtTheFailedPage: a call that fails on page 1 is retried
// from page 1, keeping page 0's rows, and each page gets its own allowance
// of attempts: with two attempts per page, one failure on each page is
// survived.
func TestFaultResumesAtTheFailedPage(t *testing.T) {
	full := market.Result{Schema: value.Schema{{Name: "K", Type: value.Int}}, Records: 2, Transactions: 1, Price: 1,
		Rows: []value.Row{{value.NewInt(1)}, {value.NewInt(2)}}}
	var mu sync.Mutex
	var pages []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		page := r.URL.Query().Get("page")
		mu.Lock()
		pages = append(pages, page)
		n := len(pages)
		mu.Unlock()
		switch {
		case n == 1 || n == 3:
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		case page == "0":
			w.Write(market.AppendResultPage(nil, full, 0, 1, 1))
		default:
			w.Write(market.AppendResultPage(nil, full, 1, 2, 0))
		}
	}))
	defer srv.Close()

	res, err := retrying(t, connector.New(srv.URL, "k"), 2, 2*time.Millisecond).Call(context.Background(), dataQ)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"0", "0", "1", "1"}; len(pages) != len(want) || pages[0] != want[0] || pages[1] != want[1] || pages[2] != want[2] || pages[3] != want[3] {
		t.Fatalf("pages requested %v, want %v", pages, want)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int64() != 1 || res.Rows[1][0].Int64() != 2 {
		t.Fatalf("rows %v, want page 0's then page 1's", res.Rows)
	}
}

// TestInheritedCallIDSentAndNotGrantedAgain: a call that arrives carrying
// an ID — federation assigns one above the transport — sends that ID, and
// the connector, which never retries, leaves the retry budget alone.
func TestInheritedCallIDSentAndNotGrantedAgain(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(market.CallIDHeader); id != "assigned-above" {
			t.Errorf("%s header %q, want the inherited ID", market.CallIDHeader, id)
		}
		w.Write(emptyPage)
	}))
	defer srv.Close()

	b := federation.NewRetryBudget(0)
	ctx := federation.WithBudget(context.Background(), b)
	q := dataQ
	q.CallID = "assigned-above"
	if _, err := connector.New(srv.URL, "k").Call(ctx, q); err != nil {
		t.Fatal(err)
	}
	if _, granted, _, _ := b.Stats(); granted != 0 {
		t.Fatalf("inherited-ID call granted %v tokens, want 0", granted)
	}
}

// failingServer always answers 500, so every attempt is a Fault.
func failingServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	attempts := new(atomic.Int64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	return srv, attempts
}

func TestRetryBudgetBoundsConnectorRetries(t *testing.T) {
	srv, attempts := failingServer(t)
	f := retrying(t, connector.New(srv.URL, "k"), 6, time.Microsecond)

	// One token of credit plus the call's half-token grant: the first
	// attempt is free, exactly one retry is admitted, the second is denied
	// with ErrRetryBudget.
	ctx := federation.WithBudget(context.Background(), federation.NewRetryBudget(1))
	_, err := f.Call(ctx, dataQ)
	if !errors.Is(err, market.ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("attempts = %d, want 2 (first + one budgeted retry)", attempts.Load())
	}

	// Without a budget on the context the full retry count is available.
	attempts.Store(0)
	if _, err := f.Call(context.Background(), dataQ); errors.Is(err, market.ErrRetryBudget) {
		t.Fatalf("budget-free context must not hit ErrRetryBudget: %v", err)
	}
	if attempts.Load() != 6 {
		t.Fatalf("attempts = %d, want 6 (1 + 5 retries)", attempts.Load())
	}
}

func TestRetryBudgetErrDistinctFromCircuitOpen(t *testing.T) {
	srv, _ := failingServer(t)
	f := retrying(t, connector.New(srv.URL, "k"), 4, time.Microsecond)
	ctx := federation.WithBudget(context.Background(), federation.NewRetryBudget(0))
	_, err := f.Call(ctx, dataQ)
	if !errors.Is(err, market.ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if errors.Is(err, market.ErrCircuitOpen) {
		t.Fatalf("a budget denial is not an open circuit: %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("a budget denial is not a context error: %v", err)
	}
}

func TestDeadlineSurvivesAffordableBackoff(t *testing.T) {
	// A backoff the deadline CAN afford is slept and the retry proceeds.
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Write(emptyPage)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := retrying(t, connector.New(srv.URL, "k"), 3, time.Millisecond).Call(ctx, dataQ); err != nil {
		t.Fatalf("affordable backoff must recover: %v", err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("attempts = %d, want 2", attempts.Load())
	}
}
