package connector

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"payless/internal/catalog"
)

// TestPerCallTimeoutBoundsEachAttempt pins the configured path: a server
// slower than the per-attempt deadline must fail fast, not hang for the
// server's pleasure.
func TestPerCallTimeoutBoundsEachAttempt(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
		http.Error(w, `{"Error":"too late"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := New(srv.URL, "k")
	c.perCallTimeout = 20 * time.Millisecond
	start := time.Now()
	_, err := c.Call(context.Background(), catalog.AccessQuery{Dataset: "DS", Table: "T"})
	if err == nil {
		t.Fatal("stalled server must surface an error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("per-call timeout ignored: took %v", elapsed)
	}
}

// TestPerCallTimeoutZeroIsCallerBounded pins the explicit-zero path: with
// the per-attempt deadline disabled, only the caller's context bounds the
// call — the regression here was Call discarding the caller's context and
// a zero timeout silently meaning "unbounded".
func TestPerCallTimeoutZeroIsCallerBounded(t *testing.T) {
	m := newMarket(t)
	inner := m.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond) // slower than the tight deadline below
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := New(srv.URL, "k")
	c.perCallTimeout = 0

	// A generous caller context succeeds: zero means "no per-attempt
	// deadline", not "default".
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := c.Call(ctx, catalog.AccessQuery{Dataset: "WHW", Table: "Station"})
	if err != nil {
		t.Fatalf("caller-bounded call failed: %v", err)
	}
	if res.Records != 150 {
		t.Fatalf("records: %d", res.Records)
	}

	// A tight caller context must still cut the attempt off — the caller's
	// deadline reaches the transport even with the per-attempt one off.
	tight, cancelTight := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancelTight()
	start := time.Now()
	if _, err := c.Call(tight, catalog.AccessQuery{Dataset: "WHW", Table: "Station"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("caller deadline ignored: took %v", elapsed)
	}
}
