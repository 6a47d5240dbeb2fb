package bench

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	payless "payless"

	"payless/internal/catalog"
	"payless/internal/market"
)

// gatedCaller holds every wire call until the current gate closes, so N
// streams demonstrably overlap on one box instead of by scheduling chance.
type gatedCaller struct {
	inner market.Caller
	mu    sync.Mutex
	gate  chan struct{}
}

func (g *gatedCaller) setGate(c chan struct{}) {
	g.mu.Lock()
	g.gate = c
	g.mu.Unlock()
}

func (g *gatedCaller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return market.Result{}, ctx.Err()
		}
	}
	return g.inner.Call(ctx, q)
}

// TestFigSharedSchedulerSavesAtN8 is the bench-scale gate of the call
// scheduler: eight concurrent streams replaying the same weather queries
// through one client must bill exactly the serial price, well below the
// eight times serial that eight independent buyers pay. Each query is its
// own country, so every round buys a box no earlier round covers.
func TestFigSharedSchedulerSavesAtN8(t *testing.T) {
	const streams = 8
	w, m := smallWHW(t)
	sqls := make([]string, 3)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT * FROM Weather WHERE Country = '%s' AND Date >= %d AND Date <= %d",
			w.Countries[i], w.Dates[0], w.Dates[len(w.Dates)-1])
	}
	cfg := func(caller market.Caller) payless.Config {
		return payless.Config{Caller: caller, DefaultTuplesPerTransaction: 100, FetchConcurrency: 4}
	}

	serial := openWHWClient(t, w, m, "serial", cfg(market.AccountCaller{Market: m, Key: "serial"}))
	for _, sql := range sqls {
		if _, err := serial.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	serialMeter, _ := m.MeterOf("serial")

	gc := &gatedCaller{inner: market.AccountCaller{Market: m, Key: "shared"}}
	client := openWHWClient(t, w, m, "shared", cfg(gc))
	for _, sql := range sqls {
		gate := make(chan struct{})
		gc.setGate(gate)
		hitsBefore := client.Metrics().SchedSingleflightHits
		var wg sync.WaitGroup
		for i := 0; i < streams; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := client.Query(sql); err != nil {
					t.Errorf("%q: %v", sql, err)
				}
			}()
		}
		// One stream's call reaches the gate; the other seven join it.
		deadline := time.Now().Add(30 * time.Second)
		for client.Metrics().SchedSingleflightHits < hitsBefore+streams-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		joined := client.Metrics().SchedSingleflightHits - hitsBefore
		close(gate)
		wg.Wait()
		if joined < streams-1 {
			t.Fatalf("%q: %d of %d streams joined the in-flight call", sql, joined, streams-1)
		}
	}
	sharedMeter, _ := m.MeterOf("shared")

	if sharedMeter != serialMeter {
		t.Fatalf("N=%d bill differs from the serial bill:\n shared: %+v\n serial: %+v", streams, sharedMeter, serialMeter)
	}
	if spend := client.TotalSpend().Transactions; spend != sharedMeter.Transactions {
		t.Fatalf("N=%d: client reports %d transactions, market metered %d", streams, spend, sharedMeter.Transactions)
	}
	if sharedMeter.Transactions == 0 || sharedMeter.Transactions >= streams*serialMeter.Transactions {
		t.Fatalf("N=%d bill %d not below %d x serial %d", streams, sharedMeter.Transactions, streams, serialMeter.Transactions)
	}
}
