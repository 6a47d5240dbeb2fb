package federation

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"payless/internal/connector"
	"payless/internal/obs"
)

// TestHedgedRetriesCountedWhereTheyHappen races a primary and its hedge
// while both retry: each endpoint answers a call's first three attempts with
// 503 and its fourth only once the other endpoint has made its fourth too,
// so every call retries three times at each endpoint before either answers.
// The two attempts retry at the same time; each retry is counted into the
// metrics by the attempt that makes it, and the route the result carries
// names the endpoint whose bill (one transaction at a, two at b) came back.
func TestHedgedRetriesCountedWhereTheyHappen(t *testing.T) {
	const calls, faults = 20, 3
	var (
		mu      sync.Mutex
		tries   = map[string]int{}           // endpoint|call ID → attempts seen
		arrived = map[string]chan struct{}{} // call ID → closed once both endpoints are ready to answer
		ready   = map[string]int{}
	)
	server := func(name string, transactions int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get("X-Call-Id")
			mu.Lock()
			tries[name+"|"+id]++
			n := tries[name+"|"+id]
			ch := arrived[id]
			if ch == nil {
				ch = make(chan struct{})
				arrived[id] = ch
			}
			if n == faults+1 {
				if ready[id]++; ready[id] == 2 {
					close(ch)
				}
			}
			mu.Unlock()
			if n <= faults {
				http.Error(w, "overloaded", http.StatusServiceUnavailable)
				return
			}
			select {
			case <-ch:
			case <-r.Context().Done():
				return
			}
			fmt.Fprintf(w, `{"Calls":1,"Records":0,"Transactions":%d,"Price":%d,"Rows":[],"NextPage":0}`, transactions, transactions)
		}))
	}
	a, b := server("a", 1), server("b", 2)
	defer a.Close()
	defer b.Close()

	m := obs.NewMetrics()
	f, err := New([]Endpoint{
		{Name: "a", Caller: connector.New(a.URL, "k"), PriceFactor: 1},
		{Name: "b", Caller: connector.New(b.URL, "k"), PriceFactor: 2},
	}, Config{
		Policy:  Policy{HedgeAfter: time.Millisecond},
		Metrics: m,
		Retry:   Retry{Attempts: faults + 1, Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		res, err := f.Call(context.Background(), q("DS", "T"))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		rt := res.Route
		want := map[int64]string{1: "a", 2: "b"}[res.Transactions]
		if rt.Endpoint != want || !rt.Hedged || rt.HedgeWon != (want == "b") || rt.Retries != faults {
			t.Fatalf("call %d billed %d at %q: route %+v, want endpoint %q, hedged, %d retries",
				i, res.Transactions, want, rt, want, faults)
		}
	}
	if got, want := m.Snapshot().Retries, int64(2*faults*calls); got != want {
		t.Fatalf("%d retries counted, want %d", got, want)
	}
}
