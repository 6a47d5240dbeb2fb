package connector

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

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

// TestMetadataCallsMakeOneAttempt: registration and the meter are attempted
// once — they bill nothing, and a client's registration fails over across
// endpoints instead — so a 429 comes straight back as a Fault carrying the
// server's Retry-After, with no wait.
func TestMetadataCallsMakeOneAttempt(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "60")
		http.Error(w, "come back later", http.StatusTooManyRequests)
	}))
	defer srv.Close()

	c := New(srv.URL, "k")
	start := time.Now()
	_, errCatalog := c.Catalog()
	_, errTPT := c.TuplesPerTransaction("WHW")
	_, errMeter := c.Meter()
	for _, err := range []error{errCatalog, errTPT, errMeter} {
		var f *Fault
		if !errors.As(err, &f) || f.RetryAfter != 60*time.Second {
			t.Fatalf("want a Fault asking for 60s, got %v", err)
		}
	}
	if hits.Load() != 3 {
		t.Fatalf("%d requests for three metadata calls, want 3", hits.Load())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("metadata calls took %v: a Retry-After was waited", elapsed)
	}
}
