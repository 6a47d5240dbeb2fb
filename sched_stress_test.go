package payless

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/value"
)

// The scheduler stress suite drives many goroutines through ONE client's
// global call scheduler and pins the cross-query invariants of the design:
//
//  1. exactly-once wire calls and semstore recording for identical
//     concurrent fetches (single-flight);
//  2. no lost waiters: canceling some waiters neither kills the shared
//     call nor starves the survivors;
//  3. seller meter parity: the 16-way concurrent run bills exactly what a
//     serial run of the same distinct queries bills.
//
// Determinism comes from a gated caller: each round's wire call blocks
// until the test has observed (via the metrics counters) that every
// concurrent requester joined the flight, so "in flight at the same time"
// is a controlled fact rather than a timing accident.

// stressTable is a one-axis market table big enough for a few rounds of
// nested range queries: a in [1,160], one output column v, t = 10.
func stressTable() *catalog.Table {
	return &catalog.Table{
		Name: "T", Dataset: "DS", Cardinality: 160,
		Schema: value.Schema{
			{Name: "a", Type: value.Int},
			{Name: "v", Type: value.Int},
		},
		Attrs: []catalog.Attribute{
			{Name: "a", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 160},
			{Name: "v", Type: value.Int, Binding: catalog.Output},
		},
	}
}

func stressMarket(t *testing.T, accounts ...string) *market.Market {
	t.Helper()
	m := market.New()
	ds, err := m.AddDataset("DS", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta := stressTable()
	rows := make([]value.Row, 0, 160)
	for a := int64(1); a <= 160; a++ {
		rows = append(rows, value.Row{value.NewInt(a), value.NewInt(a * 10)})
	}
	if err := ds.AddTable(meta, rows); err != nil {
		t.Fatal(err)
	}
	for _, acct := range accounts {
		m.RegisterAccount(acct)
	}
	return m
}

// gatedCaller blocks every wire call on the current gate until the test
// releases it (per-call contexts still cancel a blocked call), counting
// arrivals so tests can assert how many wire calls truly overlapped.
type gatedCaller struct {
	inner   market.Caller
	arrived atomic.Int64
	mu      sync.Mutex
	gate    chan struct{}
}

func (g *gatedCaller) setGate(c chan struct{}) {
	g.mu.Lock()
	g.gate = c
	g.mu.Unlock()
}

func (g *gatedCaller) arrivals() int64 { return g.arrived.Load() }

func (g *gatedCaller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	g.arrived.Add(1)
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return market.Result{}, ctx.Err()
		}
	}
	return g.inner.Call(ctx, q)
}

func openSchedClient(t *testing.T, m *market.Market, acct string, caller market.Caller, opts ...Option) *Client {
	t.Helper()
	if caller == nil {
		caller = market.AccountCaller{Market: m, Key: acct}
	}
	client, err := Open(Config{
		Tables:               m.ExportCatalog(),
		Caller:               caller,
		TuplesPerTransaction: map[string]int{"DS": 10},
		FetchConcurrency:     4,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSchedulerStressMeterParityWithSerialRun is the 16-goroutine -race
// stress test: every round, 16 goroutines issue the same nested range query
// concurrently through one scheduler while the wire call is gated open, so
// all 16 demonstrably overlap. The concurrent client's meter must equal a
// serial client's meter for the same distinct queries, and the store must
// hold each row exactly once.
func TestSchedulerStressMeterParityWithSerialRun(t *testing.T) {
	const goroutines = 16
	const rounds = 5
	m := stressMarket(t, "conc", "serial")

	gc := &gatedCaller{inner: market.AccountCaller{Market: m, Key: "conc"}}
	conc := openSchedClient(t, m, "conc", gc)
	serial := openSchedClient(t, m, "serial", nil)

	for r := 1; r <= rounds; r++ {
		sql := fmt.Sprintf("SELECT v FROM T WHERE a >= 1 AND a <= %d", r*16)
		gate := make(chan struct{})
		gc.setGate(gate)

		hitsBefore := conc.Metrics().SchedSingleflightHits
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		rowsGot := make([]int, goroutines)
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := conc.Query(sql)
				errs[i] = err
				if err == nil {
					rowsGot[i] = len(res.Rows)
				}
			}(i)
		}
		// Every goroutine needs the same uncovered remainder, so all 16
		// must join the one gated flight: 15 single-flight hits.
		waitForCond(t, "all goroutines to join the flight", func() bool {
			return conc.Metrics().SchedSingleflightHits == hitsBefore+goroutines-1
		})
		close(gate)
		wg.Wait()

		for i := 0; i < goroutines; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d goroutine %d: %v", r, i, errs[i])
			}
			if rowsGot[i] != r*16 {
				t.Fatalf("round %d goroutine %d: %d rows, want %d", r, i, rowsGot[i], r*16)
			}
		}
		if _, err := serial.Query(sql); err != nil {
			t.Fatalf("serial round %d: %v", r, err)
		}
	}

	concMeter, _ := m.MeterOf("conc")
	serialMeter, _ := m.MeterOf("serial")
	if concMeter != serialMeter {
		t.Fatalf("meter parity broken:\n concurrent: %+v\n serial:     %+v", concMeter, serialMeter)
	}
	// Exactly-once recording: every bought row is stored once, and a second
	// pass over the widest query is free.
	if got := conc.store.StoredRowCount("T"); got != rounds*16 {
		t.Fatalf("stored rows: %d, want %d", got, rounds*16)
	}
	before := concMeter
	if _, err := conc.Query(fmt.Sprintf("SELECT v FROM T WHERE a >= 1 AND a <= %d", rounds*16)); err != nil {
		t.Fatal(err)
	}
	after, _ := m.MeterOf("conc")
	if after != before {
		t.Fatalf("covered re-read billed: %+v -> %+v", before, after)
	}
}

// TestSchedulerStressCanceledWindowLeavesNoTimerOrGoroutine is the
// coalesce-window leak regression: when every waiter of a parked group
// cancels inside the window, the group's AfterFunc timer must be stopped
// and the group dropped immediately — not retained (armed, holding the
// requests) until the window elapses. The window is deliberately far longer
// than the test, so a retained group is caught, and a goleak-style
// goroutine census over many park/cancel rounds catches anything the
// scheduler left running. A second query held open for the whole test is
// the company each round's fetch parks for.
func TestSchedulerStressCanceledWindowLeavesNoTimerOrGoroutine(t *testing.T) {
	const rounds = 20
	m := stressMarket(t, "conc")
	gc := &gatedCaller{inner: market.AccountCaller{Market: m, Key: "conc"}}
	conc := openSchedClient(t, m, "conc", gc, WithCoalesceWindow(time.Minute))

	_, closeOther := conc.sched.Open(context.Background())
	baseline := runtime.NumGoroutine()
	for r := 0; r < rounds; r++ {
		// Small fetch (5 rows < t=10) so the scheduler parks it; vary the box
		// per round so coverage from earlier rounds cannot absorb it.
		sql := fmt.Sprintf("SELECT v FROM T WHERE a >= %d AND a <= %d", 5*r+1, 5*r+5)
		delayedBefore := conc.Metrics().SchedDelayedCalls
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := conc.QueryContext(ctx, sql)
			done <- err
		}()
		// The waiter is demonstrably parked in the window, then canceled.
		waitForCond(t, "the fetch to be parked", func() bool {
			return conc.Metrics().SchedDelayedCalls > delayedBefore
		})
		if got := conc.sched.PendingGroups(); got != 1 {
			t.Fatalf("round %d: %d pending groups while parked, want 1", r, got)
		}
		cancel()
		if err := <-done; err == nil || ctx.Err() == nil {
			t.Fatalf("round %d: canceled parked query returned %v", r, err)
		}
		// The last waiter left: timer stopped, group gone, NOW — a minute
		// before the window would have fired.
		if got := conc.sched.PendingGroups(); got != 0 {
			t.Fatalf("round %d: %d pending groups after last waiter canceled, want 0", r, got)
		}
	}
	closeOther()
	// No wire call was ever made and nothing billed for the canceled parks.
	if got := gc.arrivals(); got != 0 {
		t.Fatalf("canceled parked fetches reached the wire %d times", got)
	}
	meter, _ := m.MeterOf("conc")
	if meter.Calls != 0 {
		t.Fatalf("canceled parked fetches billed: %+v", meter)
	}
	// Goroutine census: everything the rounds started must wind down.
	waitForCond(t, "goroutines to drain back to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestSchedulerStressNoLostWaitersOnCancel cancels half the waiters of a
// demonstrably shared in-flight call: the survivors must all get full
// results, exactly one wire call may bill, and the canceled half must get
// clean context errors — no hangs, no lost waiters.
func TestSchedulerStressNoLostWaitersOnCancel(t *testing.T) {
	const goroutines = 16
	m := stressMarket(t, "conc")
	gc := &gatedCaller{inner: market.AccountCaller{Market: m, Key: "conc"}}
	conc := openSchedClient(t, m, "conc", gc)

	sql := "SELECT v FROM T WHERE a >= 1 AND a <= 40"
	gate := make(chan struct{})
	gc.setGate(gate)

	ctxs := make([]context.Context, goroutines)
	cancels := make([]context.CancelFunc, goroutines)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	rows := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := conc.QueryContext(ctxs[i], sql)
			errs[i] = err
			if err == nil {
				rows[i] = len(res.Rows)
			}
		}(i)
	}
	waitForCond(t, "all goroutines to join the flight", func() bool {
		return conc.Metrics().SchedSingleflightHits == goroutines-1
	})
	// Cancel every odd waiter while the shared call is still in flight.
	for i := 1; i < goroutines; i += 2 {
		cancels[i]()
	}
	close(gate)
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if i%2 == 1 {
			if errs[i] == nil {
				// A canceled waiter may still win the race against its own
				// cancellation and get the shared rows; that is acceptable.
				continue
			}
			if ctxs[i].Err() == nil {
				t.Fatalf("goroutine %d failed without cancellation: %v", i, errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("surviving goroutine %d: %v", i, errs[i])
		}
		if rows[i] != 40 {
			t.Fatalf("surviving goroutine %d: %d rows", i, rows[i])
		}
	}
	meter, _ := m.MeterOf("conc")
	if meter.Calls != 1 || meter.Transactions != 4 {
		t.Fatalf("shared call must bill exactly once: %+v", meter)
	}
	// The shared flight recorded its rows despite the cancellations: a
	// re-read is free.
	if _, err := conc.Query(sql); err != nil {
		t.Fatal(err)
	}
	after, _ := m.MeterOf("conc")
	if after != meter {
		t.Fatalf("re-read billed after cancel round: %+v -> %+v", meter, after)
	}
}
