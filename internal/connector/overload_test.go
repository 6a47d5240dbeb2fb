package connector

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"payless/internal/overload"
)

// failingServer always answers 500, so every get() exhausts its retries.
func failingServer(t *testing.T) (*httptest.Server, *int) {
	t.Helper()
	attempts := new(int)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		*attempts++
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	return srv, attempts
}

func TestRetryBudgetBoundsConnectorRetries(t *testing.T) {
	srv, attempts := failingServer(t)
	c := New(srv.URL, "k", WithRetries(5), WithBackoff(time.Microsecond, time.Microsecond))

	// With one token of credit: the first attempt is free, exactly one
	// retry is admitted, the second is denied with ErrRetryBudget.
	ctx := overload.WithBudget(context.Background(), overload.NewRetryBudget(1))
	_, err := c.MeterContext(ctx)
	if !errors.Is(err, overload.ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if *attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (first + one budgeted retry)", *attempts)
	}

	// Without a budget on the context the full retry count is available.
	*attempts = 0
	if _, err := c.MeterContext(context.Background()); errors.Is(err, overload.ErrRetryBudget) {
		t.Fatalf("budget-free context must not hit ErrRetryBudget: %v", err)
	}
	if *attempts != 6 {
		t.Fatalf("attempts = %d, want 6 (1 + 5 retries)", *attempts)
	}
}

func TestRetryBudgetErrDistinctFromCircuitOpen(t *testing.T) {
	srv, _ := failingServer(t)
	c := New(srv.URL, "k", WithRetries(3), WithBackoff(time.Microsecond, time.Microsecond))
	ctx := overload.WithBudget(context.Background(), overload.NewRetryBudget(0))
	_, err := c.MeterContext(ctx)
	if !errors.Is(err, overload.ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("a budget denial is not a context error: %v", err)
	}
}

func TestDeadlineSurvivesAffordableBackoff(t *testing.T) {
	// A backoff the deadline CAN afford is slept and the retry proceeds.
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts == 1 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"Calls":0,"Records":0,"Transactions":0,"Price":0}`))
	}))
	defer srv.Close()

	c := New(srv.URL, "k", WithRetries(2), WithBackoff(time.Millisecond, time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.MeterContext(ctx); err != nil {
		t.Fatalf("affordable backoff must recover: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}
