package payless

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
)

// The scheduler suite pins the scheduler's core promise: it can only
// remove cross-query duplication, never change what a single query costs.
//
//  1. A lone client's calls pass through untouched, with or without a
//     coalesce window: every wire call is one planned call of the query's
//     trace, nothing is shared or parked, and the reports add up to the
//     seller meter.
//  2. With a coalesce window, a lone client bills exactly what it bills
//     without one.
//  3. Under forced concurrent overlap, the concurrent run bills exactly the
//     serial price — less than the overlapping queries would pay apart.

// wireLog records the access query of every wire call.
type wireLog struct {
	inner market.Caller

	mu    sync.Mutex
	calls []string
}

func (w *wireLog) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	w.mu.Lock()
	w.calls = append(w.calls, q.String())
	w.mu.Unlock()
	return w.inner.Call(ctx, q)
}

// take returns the calls logged since the last take, sorted.
func (w *wireLog) take() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.calls
	w.calls = nil
	sort.Strings(out)
	return out
}

func openDiffClient(t *testing.T, m *market.Market, acct string, opts ...Option) *Client {
	t.Helper()
	client, err := Open(Config{
		Tables:                      m.ExportCatalog(),
		Caller:                      market.AccountCaller{Market: m, Key: acct},
		DefaultTuplesPerTransaction: 100,
		FetchConcurrency:            8,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// TestSchedulerN1Differential checks a lone client against the plan
// itself rather than against a second call path: the scheduler must hand
// every planned call to the market as planned, once — also under paylessd's
// default 2 ms coalesce window, which a lone query never waits in.
func TestSchedulerN1Differential(t *testing.T) {
	for _, window := range []time.Duration{0, 2 * time.Millisecond} {
		t.Run(fmt.Sprint("window=", window), func(t *testing.T) {
			schedulerN1Differential(t, window)
		})
	}
}

func schedulerN1Differential(t *testing.T, window time.Duration) {
	m, w := buildChaosMarket(t)
	wire := &wireLog{inner: market.AccountCaller{Market: m, Key: "acct"}}
	client, err := Open(Config{
		Tables:                      m.ExportCatalog(),
		Caller:                      wire,
		DefaultTuplesPerTransaction: 100,
		FetchConcurrency:            8,
	}, WithTracer(&CollectTracer{}), WithCoalesceWindow(window))
	if err != nil {
		t.Fatal(err)
	}

	var reported int64
	for _, sql := range chaosQueries(w) {
		res, err := client.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		var planned []string
		var traced int64
		for _, c := range res.Trace.Calls {
			if c.Coalesced || c.SharedWith != 0 {
				t.Fatalf("%q: lone call %s was shared: %+v", sql, c.Query, c)
			}
			planned = append(planned, c.Query)
			traced += c.Transactions
		}
		sort.Strings(planned)
		if got := wire.take(); strings.Join(got, "\n") != strings.Join(planned, "\n") {
			t.Fatalf("%q: wire calls differ from the planned calls:\n wire:    %q\n planned: %q", sql, got, planned)
		}
		if traced != res.Report.Transactions {
			t.Fatalf("%q: trace bills %d transactions, report %d", sql, traced, res.Report.Transactions)
		}
		reported += res.Report.Transactions
	}
	// Merged calls may be non-zero: those are the plan's own sibling
	// fusions, each one planned call of the trace.
	if st := client.Metrics(); st.SchedSingleflightHits != 0 || st.SchedDelayedCalls != 0 {
		t.Fatalf("a lone client was shared or parked: %d single-flight hits, %d delayed calls",
			st.SchedSingleflightHits, st.SchedDelayedCalls)
	}
	if meter, _ := m.MeterOf("acct"); meter.Transactions != reported {
		t.Fatalf("seller meter %d != sum of reports %d", meter.Transactions, reported)
	}
}

// TestSchedulerWindowNeverCostsMoreAtN1: a lone client bills exactly the
// same with an (hour-long) window as without one. The WithoutSQR arm pins
// that batches which do not record are issued as planned: a window no
// longer fuses a lone query's bind-join point calls, which before the open
// query registry it did whenever siblings happened to park together.
func TestSchedulerWindowNeverCostsMoreAtN1(t *testing.T) {
	for _, arm := range []struct {
		name string
		opts []Option
	}{{"SQR", nil}, {"WithoutSQR", []Option{WithConsistency(Strong())}}} {
		t.Run(arm.name, func(t *testing.T) {
			m, w := buildChaosMarket(t)
			m.RegisterAccount("windowed")

			plain := openDiffClient(t, m, "acct", arm.opts...)
			windowed := openDiffClient(t, m, "windowed", append(arm.opts, WithCoalesceWindow(time.Hour))...)

			for _, sql := range chaosQueries(w) {
				if _, err := plain.Query(sql); err != nil {
					t.Fatalf("plain %q: %v", sql, err)
				}
				if _, err := windowed.Query(sql); err != nil {
					t.Fatalf("windowed %q: %v", sql, err)
				}
			}
			mp, _ := m.MeterOf("acct")
			mw, _ := m.MeterOf("windowed")
			if mw != mp {
				t.Fatalf("a window changed a single-client run's bill:\n windowed: %+v\n plain:    %+v", mw, mp)
			}
		})
	}
}

// TestSchedulerConcurrentDifferentialOracle forces 4 queries' worth of
// overlap round by round (the gate holds every wire call open until all
// requesters demonstrably overlap) and checks the ordering the design
// promises: concurrent == serial < 4 × serial.
func TestSchedulerConcurrentDifferentialOracle(t *testing.T) {
	const goroutines = 4
	ranges := [][2]int{{1, 30}, {21, 50}, {41, 70}, {61, 90}}

	m := stressMarket(t, "conc", "serial")

	serial := openSchedClient(t, m, "serial", nil)
	for _, rg := range ranges {
		if _, err := serial.Query(fmt.Sprintf("SELECT v FROM T WHERE a >= %d AND a <= %d", rg[0], rg[1])); err != nil {
			t.Fatal(err)
		}
	}
	serialMeter, _ := m.MeterOf("serial")

	gc := &gatedCaller{inner: market.AccountCaller{Market: m, Key: "conc"}}
	client := openSchedClient(t, m, "conc", gc)
	for _, rg := range ranges {
		sql := fmt.Sprintf("SELECT v FROM T WHERE a >= %d AND a <= %d", rg[0], rg[1])
		gate := make(chan struct{})
		gc.setGate(gate)
		hitsBefore := client.Metrics().SchedSingleflightHits
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := client.Query(sql); err != nil {
					t.Errorf("%q: %v", sql, err)
				}
			}()
		}
		// One wire call arrives; the other three join it.
		waitForCond(t, "joins", func() bool {
			return client.Metrics().SchedSingleflightHits == hitsBefore+goroutines-1
		})
		close(gate)
		wg.Wait()
	}
	concMeter, _ := m.MeterOf("conc")

	if concMeter != serialMeter {
		t.Fatalf("concurrent run must bill the serial price:\n concurrent: %+v\n serial:     %+v",
			concMeter, serialMeter)
	}
	if concMeter.Transactions >= goroutines*serialMeter.Transactions {
		t.Fatalf("scheduler saved nothing under forced overlap: %d transactions vs %d x serial %d",
			concMeter.Transactions, goroutines, serialMeter.Transactions)
	}
}

// TestCallDurationObservedPerWireCall: payless_call_duration_seconds counts
// every wire call exactly once, whether or not a Tracer is installed.
func TestCallDurationObservedPerWireCall(t *testing.T) {
	for _, traced := range []bool{false, true} {
		m, w := buildChaosMarket(t)
		wire := &wireLog{inner: market.AccountCaller{Market: m, Key: "acct"}}
		var opts []Option
		if traced {
			opts = append(opts, WithTracer(&CollectTracer{}))
		}
		client, err := Open(Config{
			Tables:                      m.ExportCatalog(),
			Caller:                      wire,
			DefaultTuplesPerTransaction: 100,
			FetchConcurrency:            8,
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range chaosQueries(w) {
			if _, err := client.Query(sql); err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
		}
		calls := int64(len(wire.take()))
		if got := client.Metrics().CallLatency.Count; calls == 0 || got != calls {
			t.Fatalf("traced=%v: call duration histogram counts %d, wire calls %d", traced, got, calls)
		}
	}
}
