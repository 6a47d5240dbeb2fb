package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/federation"
	"payless/internal/market"
	"payless/internal/obs"
	"payless/internal/region"
	"payless/internal/semstore"
	"payless/internal/storage"
	"payless/internal/value"
)

// tTable is a one-axis market table: a in [1,100], one output column v.
func tTable() *catalog.Table {
	return &catalog.Table{
		Name: "T", Dataset: "DS",
		Schema: value.Schema{
			{Name: "a", Type: value.Int},
			{Name: "v", Type: value.Int},
		},
		Attrs: []catalog.Attribute{
			{Name: "a", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 100},
			{Name: "v", Type: value.Int, Binding: catalog.Output},
		},
	}
}

// boxFor builds the [lo, hi] (inclusive) box on the a axis.
func boxFor(lo, hi int64) region.Box {
	return region.Box{Dims: []region.Interval{{Lo: lo, Hi: hi + 1}}}
}

func reqFor(t *testing.T, meta *catalog.Table, lo, hi int64, record bool) Request {
	t.Helper()
	b := boxFor(lo, hi)
	q, err := catalog.QueryForBox(meta, b)
	if err != nil {
		t.Fatal(err)
	}
	return Request{Meta: meta, Box: b, Query: q, Record: record}
}

// fakeCaller synthesizes one row per coordinate of the queried a-range and
// bills ceil(rows/t) transactions, routed as route says. gate, when non-nil,
// blocks every wire call until released (or the call context dies).
type fakeCaller struct {
	meta  *catalog.Table
	t     int64
	route market.Route
	gate  chan struct{}
	mu    sync.Mutex
	calls []catalog.AccessQuery
}

func (f *fakeCaller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	f.mu.Lock()
	f.calls = append(f.calls, q)
	f.mu.Unlock()
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return market.Result{}, ctx.Err()
		}
	}
	lo, hi := int64(1), int64(100)
	for _, p := range q.Preds {
		if p.Attr != "a" {
			continue
		}
		switch {
		case p.Eq != nil:
			lo, hi = p.Eq.AsInt(), p.Eq.AsInt()
		default:
			if p.Lo != nil {
				lo = *p.Lo
			}
			if p.Hi != nil {
				hi = *p.Hi
			}
		}
	}
	res := market.Result{Schema: f.meta.Schema.Clone(), Route: f.route}
	var rows []value.Row
	for a := lo; a <= hi; a++ {
		rows = append(rows, value.Row{value.NewInt(a), value.NewInt(a * 10)})
	}
	res.Batch = value.BatchOf(res.Schema, rows)
	res.Records = len(rows)
	t := f.t
	if t <= 0 {
		t = 10
	}
	res.Transactions = (int64(res.Records) + t - 1) / t
	res.Price = float64(res.Transactions)
	return res, nil
}

func (f *fakeCaller) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func newSched(caller market.Caller, cfg Config) *Scheduler {
	if cfg.TuplesPerTransaction == nil {
		cfg.TuplesPerTransaction = func(string) int { return 10 }
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	return New(caller, cfg)
}

// counters reads the scheduler counter families from the registry the
// scheduler was configured with.
func counters(s *Scheduler) obs.Snapshot { return s.cfg.Metrics.Snapshot() }

func TestSingleFlightSharesOneCallAndOneBill(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10, gate: make(chan struct{})}
	s := newSched(fc, Config{})

	const n = 4
	type out struct {
		res  market.Result
		info Info
		err  error
	}
	outs := make([]out, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, inf, err := s.Fetch(context.Background(), reqFor(t, meta, 1, 20, false))
			outs[i] = out{r, inf, err}
		}(i)
	}
	waitFor(t, func() bool { return counters(s).SchedSingleflightHits == n-1 })
	close(fc.gate)
	wg.Wait()

	if got := fc.callCount(); got != 1 {
		t.Fatalf("wire calls: %d, want 1", got)
	}
	var billed int64
	payers := 0
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("waiter %d: %v", i, o.err)
		}
		if o.res.Batch.N != 20 || o.res.Records != 20 {
			t.Fatalf("waiter %d rows: %d", i, o.res.Batch.N)
		}
		if !o.info.Shared || o.info.SharedWith != n-1 {
			t.Fatalf("waiter %d info: %+v", i, o.info)
		}
		if o.res.Transactions > 0 {
			payers++
		}
		billed += o.res.Transactions
	}
	if payers != 1 || billed != 2 {
		t.Fatalf("bill attribution: %d payers, %d transactions (want 1 payer, 2 transactions)", payers, billed)
	}
}

func TestCanceledWaiterDetachesWithoutKillingSharedCall(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10, gate: make(chan struct{})}
	s := newSched(fc, Config{})

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Fetch(ctx1, reqFor(t, meta, 1, 10, false))
		errc <- err
	}()
	waitFor(t, func() bool { return inflightCount(s) == 1 })

	done := make(chan struct{})
	var res market.Result
	var err2 error
	go func() {
		defer close(done)
		res, _, err2 = s.Fetch(context.Background(), reqFor(t, meta, 1, 10, false))
	}()
	waitFor(t, func() bool { return counters(s).SchedSingleflightHits == 1 })

	cancel1()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled waiter: %v", err)
	}
	close(fc.gate)
	<-done
	if err2 != nil {
		t.Fatalf("surviving waiter: %v", err2)
	}
	if res.Batch.N != 10 || res.Transactions != 1 {
		t.Fatalf("survivor got %d rows, %d transactions", res.Batch.N, res.Transactions)
	}
	if fc.callCount() != 1 {
		t.Fatalf("wire calls: %d", fc.callCount())
	}
}

func TestLastWaiterCancelTearsDownTheCall(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10, gate: make(chan struct{})}
	defer close(fc.gate)
	s := newSched(fc, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Fetch(ctx, reqFor(t, meta, 1, 10, false))
		errc <- err
	}()
	waitFor(t, func() bool { return inflightCount(s) == 1 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("want Canceled, got %v", err)
	}
	// The wire call's context dies with its last waiter, so the flight
	// drains from the in-flight table.
	waitFor(t, func() bool { return inflightCount(s) == 0 })
}

// TestFlightCarriesTheLaunchingRequestsValues: a wire call runs under its
// launching request's context values — the query's retry budget reaches the
// transport — and its route comes back with the result, whether it launched
// at once or was fired by the coalesce window (a second open query that
// never fetches keeps the request parked until the window expires).
func TestFlightCarriesTheLaunchingRequestsValues(t *testing.T) {
	meta := tTable()
	for _, window := range []time.Duration{0, time.Millisecond} {
		budget := federation.NewRetryBudget(1)
		ctx := federation.WithBudget(context.Background(), budget)
		var sawBudget bool
		caller := market.CallerFunc(func(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
			sawBudget = federation.BudgetFrom(ctx) == budget
			// What a federation that retried once returns.
			return (&fakeCaller{meta: meta, t: 10, route: market.Route{Endpoint: "m", Retries: 1}}).Call(ctx, q)
		})
		s := newSched(caller, Config{Window: window})
		_, closeOther := s.Open(context.Background())
		res, info, err := s.Fetch(ctx, reqFor(t, meta, 1, 5, false))
		closeOther()
		if err != nil {
			t.Fatal(err)
		}
		if info.Delayed != (window > 0) {
			t.Fatalf("window %v: delayed = %v", window, info.Delayed)
		}
		if !sawBudget || res.Route.Endpoint != "m" || res.Route.Retries != 1 {
			t.Fatalf("window %v: wire call saw budget=%v, route %+v (want true, m with 1 retry)",
				window, sawBudget, res.Route)
		}
	}
}

// TestSharedFlightRouteRetriesGoToThePayer: every requester of a shared
// call learns which endpoint served it, but only the one that carries the
// bill carries the call's retries, so the retries summed over requesters'
// traces are the retries the wire call made.
func TestSharedFlightRouteRetriesGoToThePayer(t *testing.T) {
	meta := tTable()
	route := market.Route{Endpoint: "east", Failovers: 1, Retries: 2}
	fc := &fakeCaller{meta: meta, t: 10, route: route, gate: make(chan struct{})}
	s := newSched(fc, Config{})
	outs := make([]market.Result, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := s.Fetch(context.Background(), reqFor(t, meta, 1, 20, false))
			if err != nil {
				t.Error(err)
			}
			outs[i] = res
		}()
	}
	waitFor(t, func() bool { return counters(s).SchedSingleflightHits == 1 })
	close(fc.gate)
	wg.Wait()
	if fc.callCount() != 1 {
		t.Fatalf("wire calls: %d, want 1", fc.callCount())
	}
	retries := 0
	for i, res := range outs {
		payer := res.Transactions > 0
		want := route
		if !payer {
			want.Retries = 0
		}
		if res.Route != want {
			t.Errorf("requester %d (payer %v): route %+v, want %+v", i, payer, res.Route, want)
		}
		retries += res.Route.Retries
	}
	if retries != route.Retries {
		t.Fatalf("requesters carry %d retries, the wire call made %d", retries, route.Retries)
	}
}

// TestRequestAfterTeardownLaunchesAFreshCall: once the last waiter has
// detached, an identical request must not join the dying call — it would
// fail with a cancellation it did not cause — but launch its own.
func TestRequestAfterTeardownLaunchesAFreshCall(t *testing.T) {
	meta := tTable()
	release := make(chan struct{})
	var calls atomic.Int64
	caller := market.CallerFunc(func(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
		if calls.Add(1) == 1 {
			<-release // a transport that notices the cancellation late
			return market.Result{}, ctx.Err()
		}
		return (&fakeCaller{meta: meta, t: 10}).Call(ctx, q)
	})
	s := newSched(caller, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Fetch(ctx, reqFor(t, meta, 1, 10, false))
		errc <- err
	}()
	waitFor(t, func() bool { return calls.Load() == 1 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("detached waiter: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		res, _, err := s.Fetch(context.Background(), reqFor(t, meta, 1, 10, false))
		if err == nil && res.Records != 10 {
			err = fmt.Errorf("records = %d, want 10", res.Records)
		}
		done <- err
	}()
	waitFor(t, func() bool { return calls.Load() == 2 })
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("request after teardown: %v", err)
	}
}

func TestPiggybackOnContainingInFlightCall(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10, gate: make(chan struct{})}
	s := newSched(fc, Config{})

	var wide, narrow market.Result
	var infoN Info
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wide, _, _ = s.Fetch(context.Background(), reqFor(t, meta, 1, 50, false))
	}()
	waitFor(t, func() bool { return inflightCount(s) == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		narrow, infoN, _ = s.Fetch(context.Background(), reqFor(t, meta, 10, 19, false))
	}()
	waitFor(t, func() bool { return counters(s).SchedSingleflightHits == 1 })
	close(fc.gate)
	wg.Wait()

	if fc.callCount() != 1 {
		t.Fatalf("wire calls: %d", fc.callCount())
	}
	if wide.Batch.N != 50 {
		t.Fatalf("wide rows: %d", wide.Batch.N)
	}
	if narrow.Batch.N != 10 || narrow.Records != 10 {
		t.Fatalf("piggybacked rows must be filtered to the narrow query: %d", narrow.Batch.N)
	}
	if !infoN.Shared {
		t.Fatalf("narrow info: %+v", infoN)
	}
	if wide.Transactions+narrow.Transactions != 5 {
		t.Fatalf("total billed: %d", wide.Transactions+narrow.Transactions)
	}
}

// TestWindowMergesAdjacentBoxesIntoOneCall: two open queries' fetches with
// adjacent boxes park together and are fused when the window expires.
func TestWindowMergesAdjacentBoxesIntoOneCall(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10}
	s := newSched(fc, Config{Window: 30 * time.Millisecond})
	ctxA, closeA := s.Open(context.Background())
	defer closeA()
	ctxB, closeB := s.Open(context.Background())
	defer closeB()

	var a, b market.Result
	var ia, ib Info
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a, ia, _ = s.Fetch(ctxA, reqFor(t, meta, 1, 5, false)) }()
	go func() { defer wg.Done(); b, ib, _ = s.Fetch(ctxB, reqFor(t, meta, 6, 9, false)) }()
	wg.Wait()

	if fc.callCount() != 1 {
		t.Fatalf("wire calls: %d, want 1 merged call", fc.callCount())
	}
	if a.Batch.N != 5 || b.Batch.N != 4 {
		t.Fatalf("split rows: %d / %d", a.Batch.N, b.Batch.N)
	}
	if !ia.Merged || !ib.Merged || !ia.Delayed || !ib.Delayed {
		t.Fatalf("infos: %+v / %+v", ia, ib)
	}
	// Separately the parts cost 1+1 transactions; merged they cost 1.
	if got := a.Transactions + b.Transactions; got != 1 {
		t.Fatalf("merged bill: %d transactions, want 1", got)
	}
	st := counters(s)
	if st.SchedMergedCalls != 1 || st.SchedDelayedCalls != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.SchedMergedTransactionsSaved != 1 {
		t.Fatalf("saved: %d, want 1", st.SchedMergedTransactionsSaved)
	}
}

func TestWindowLeavesGappedBoxesAlone(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10}
	s := newSched(fc, Config{Window: 30 * time.Millisecond})
	ctxA, closeA := s.Open(context.Background())
	defer closeA()
	ctxB, closeB := s.Open(context.Background())
	defer closeB()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.Fetch(ctxA, reqFor(t, meta, 1, 5, false)) }()
	go func() { defer wg.Done(); s.Fetch(ctxB, reqFor(t, meta, 50, 55, false)) }()
	wg.Wait()

	// A gap between the boxes means the union is not exact: merging would
	// buy rows nobody asked for, so the scheduler must not fuse them.
	if fc.callCount() != 2 {
		t.Fatalf("wire calls: %d, want 2 (no merge across a gap)", fc.callCount())
	}
}

func TestMergeRespectsCostModelVeto(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10}
	s := newSched(fc, Config{
		Window: 30 * time.Millisecond,
		// A hostile estimator that prices the union above the parts: the
		// scheduler must believe it and keep the calls separate.
		Estimate: func(_ string, b region.Box) float64 {
			if b.Dims[0].Width() > 6 {
				return 1000
			}
			return 5
		},
	})
	ctxA, closeA := s.Open(context.Background())
	defer closeA()
	ctxB, closeB := s.Open(context.Background())
	defer closeB()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.Fetch(ctxA, reqFor(t, meta, 1, 5, false)) }()
	go func() { defer wg.Done(); s.Fetch(ctxB, reqFor(t, meta, 6, 9, false)) }()
	wg.Wait()

	if fc.callCount() != 2 {
		t.Fatalf("wire calls: %d, want 2 (cost model vetoed the merge)", fc.callCount())
	}
}

func TestLargeFetchSkipsTheWindow(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10}
	s := newSched(fc, Config{
		Window:   time.Hour, // parked requests would hang the test
		Estimate: func(_ string, b region.Box) float64 { return float64(b.Dims[0].Width()) },
	})
	res, info, err := s.Fetch(context.Background(), reqFor(t, meta, 1, 40, false))
	if err != nil {
		t.Fatal(err)
	}
	if info.Delayed {
		t.Fatal("a super-transaction fetch must dispatch immediately")
	}
	if res.Batch.N != 40 || res.Transactions != 4 {
		t.Fatalf("rows %d transactions %d", res.Batch.N, res.Transactions)
	}
}

func TestParkedWaiterCancelBeforeDispatch(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10}
	s := newSched(fc, Config{Window: 50 * time.Millisecond})
	// Another open query keeps the fetch parked.
	_, closeOther := s.Open(context.Background())
	defer closeOther()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Fetch(ctx, reqFor(t, meta, 1, 5, false))
		errc <- err
	}()
	waitFor(t, func() bool { return counters(s).SchedDelayedCalls == 1 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("parked waiter: %v", err)
	}
	if got := s.PendingGroups(); got != 0 {
		t.Fatalf("%d pending groups after the only parked waiter left", got)
	}
	// Once the window fires, the abandoned request must not be bought.
	time.Sleep(80 * time.Millisecond)
	if fc.callCount() != 0 {
		t.Fatalf("abandoned parked request still dispatched: %d calls", fc.callCount())
	}
}

// The window-rule tests use an hour-long window: a fetch that waits when it
// should not hangs the test instead of passing late.

func TestLoneQueryNeverParks(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10}
	s := newSched(fc, Config{Window: time.Hour})

	ctx, closeQuery := s.Open(context.Background())
	_, info, err := s.Fetch(ctx, reqFor(t, meta, 1, 5, false))
	closeQuery()
	if err != nil {
		t.Fatal(err)
	}
	// A fetch outside any registered query is a lone query of its own.
	if _, _, err := s.Fetch(context.Background(), reqFor(t, meta, 6, 9, false)); err != nil {
		t.Fatal(err)
	}
	if info.Delayed || counters(s).SchedDelayedCalls != 0 || s.PendingGroups() != 0 {
		t.Fatalf("a lone query parked: info %+v, stats %+v, %d pending groups", info, counters(s), s.PendingGroups())
	}
	if fc.callCount() != 2 {
		t.Fatalf("wire calls: %d, want 2", fc.callCount())
	}
}

// fusedReq is the request the engine issues for a plan's sibling pieces
// fused into one union: [1,5] and [6,9] as [1,9].
func fusedReq(t *testing.T, meta *catalog.Table) Request {
	r := reqFor(t, meta, 1, 9, false)
	r.Parts = []catalog.AccessQuery{reqFor(t, meta, 1, 5, false).Query, reqFor(t, meta, 6, 9, false).Query}
	return r
}

// TestFusedRequestBookedOncePerWireCall: a call the engine fused is booked
// as one merge by the wire call that carries it — not again by a requester
// that joined it, and once in all when the window merges it further.
func TestFusedRequestBookedOncePerWireCall(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10, gate: make(chan struct{})}
	s := newSched(fc, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Fetch(context.Background(), fusedReq(t, meta)) }()
	}
	waitFor(t, func() bool { return counters(s).SchedSingleflightHits == 1 })
	close(fc.gate)
	wg.Wait()
	// Apart, the 5 and 4 rows would bill 1 + 1; the union bills 1.
	if st := counters(s); fc.callCount() != 1 || st.SchedMergedCalls != 1 || st.SchedMergedTransactionsSaved != 1 {
		t.Fatalf("%d wire calls, stats %+v; want 1 call booked as 1 merge saving 1", fc.callCount(), st)
	}

	fc = &fakeCaller{meta: meta, t: 10}
	s = newSched(fc, Config{Window: 30 * time.Millisecond})
	ctxA, closeA := s.Open(context.Background())
	defer closeA()
	ctxB, closeB := s.Open(context.Background())
	defer closeB()
	wg.Add(2)
	go func() { defer wg.Done(); s.Fetch(ctxA, fusedReq(t, meta)) }()
	go func() { defer wg.Done(); s.Fetch(ctxB, reqFor(t, meta, 10, 12, false)) }()
	wg.Wait()
	// One wire call for [1,12]: the parts 5, 4 and 3 rows would bill 3
	// apart, the union bills 2.
	if st := counters(s); fc.callCount() != 1 || st.SchedMergedCalls != 1 || st.SchedMergedTransactionsSaved != 1 {
		t.Fatalf("%d wire calls, stats %+v; want 1 call booked as 1 merge saving 1", fc.callCount(), st)
	}
}

func TestParkedQueryReleasedWhenCompanyCloses(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10}
	// The estimator runs under the scheduler lock just before the fetch
	// parks, so once it has signalled, closeB cannot get in ahead of the park.
	parking := make(chan struct{})
	var once sync.Once
	s := newSched(fc, Config{Window: time.Hour, Estimate: func(string, region.Box) float64 {
		once.Do(func() { close(parking) })
		return 1
	}})

	ctxA, closeA := s.Open(context.Background())
	defer closeA()
	_, closeB := s.Open(context.Background())
	type out struct {
		info Info
		err  error
	}
	done := make(chan out, 1)
	go func() {
		_, info, err := s.Fetch(ctxA, reqFor(t, meta, 1, 5, false))
		done <- out{info, err}
	}()
	<-parking
	closeB() // B finishes without ever fetching: A has nobody left to wait for
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if !o.info.Delayed || o.info.Merged || fc.callCount() != 1 || s.PendingGroups() != 0 {
		t.Fatalf("info %+v, %d wire calls, %d pending groups", o.info, fc.callCount(), s.PendingGroups())
	}
}

func TestFuseKeepsExactUnionsOnly(t *testing.T) {
	meta := tTable()
	s := newSched(&fakeCaller{meta: meta, t: 10}, Config{})
	boxes := []region.Box{boxFor(1, 5), boxFor(50, 55), boxFor(6, 9), boxFor(10, 12)}
	fus := s.Fuse(meta, boxes)
	if len(fus) != 2 {
		t.Fatalf("fusions: %+v", fus)
	}
	// [1,5], [6,9] and [10,12] touch in a chain; [50,55] is across a gap.
	if got := fus[0]; fmt.Sprint(got.Members) != "[0 2 3]" || !got.Box.Equal(boxFor(1, 12)) || got.Query.String() != reqFor(t, meta, 1, 12, false).Query.String() {
		t.Fatalf("first fusion: %+v", got)
	}
	if got := fus[1]; fmt.Sprint(got.Members) != "[1]" || !got.Box.Equal(boxFor(50, 55)) {
		t.Fatalf("second fusion: %+v", got)
	}
}

func TestSharedRecordPathRecordsExactlyOnce(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10, gate: make(chan struct{})}
	store := semstore.New(storage.NewDB())
	s := newSched(fc, Config{Store: store})

	const n = 3
	infos := make([]Info, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, infos[i], _ = s.Fetch(context.Background(), reqFor(t, meta, 1, 20, true))
		}(i)
	}
	waitFor(t, func() bool { return counters(s).SchedSingleflightHits == n-1 })
	close(fc.gate)
	wg.Wait()

	for i, inf := range infos {
		if !inf.Recorded {
			t.Fatalf("waiter %d: shared record-path flight must report Recorded, got %+v", i, inf)
		}
	}
	if got := store.StoredRowCount("T"); got != 20 {
		t.Fatalf("stored rows: %d, want 20", got)
	}
	covered, _ := store.Coverage("T", boxFor(1, 20), time.Time{})
	if !region.CoveredBy(boxFor(1, 20), covered) {
		t.Fatal("shared flight's box missing from the store")
	}
}

func TestSoleFlightLeavesRecordingToTheEngine(t *testing.T) {
	meta := tTable()
	fc := &fakeCaller{meta: meta, t: 10}
	store := semstore.New(storage.NewDB())
	s := newSched(fc, Config{Store: store})

	_, info, err := s.Fetch(context.Background(), reqFor(t, meta, 1, 20, true))
	if err != nil {
		t.Fatal(err)
	}
	if info.Recorded {
		t.Fatal("sole flight must leave recording to the requester's engine (N=1 parity)")
	}
	if got := store.StoredRowCount("T"); got != 0 {
		t.Fatalf("scheduler recorded a sole flight: %d rows", got)
	}
}

func TestAbandonedRecordPathCallIsSalvagedIntoTheStore(t *testing.T) {
	meta := tTable()
	// No gate: the wire call succeeds instantly; the waiter detaches while
	// (or after) the money is spent.
	release := make(chan struct{})
	var entered atomic.Bool
	slow := market.CallerFunc(func(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
		entered.Store(true)
		<-release // ignore ctx: simulate a response already on the wire
		return (&fakeCaller{meta: meta, t: 10}).Call(context.Background(), q)
	})
	store := semstore.New(storage.NewDB())
	s := newSched(slow, Config{Store: store})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Fetch(ctx, reqFor(t, meta, 1, 20, true))
		errc <- err
	}()
	waitFor(t, func() bool { return entered.Load() })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("detached waiter: %v", err)
	}
	close(release)
	// The call completed after its last waiter left: the paid-for rows must
	// still land in the store so a retry does not re-buy them.
	waitFor(t, func() bool { return store.StoredRowCount("T") == 20 })
}

func TestWireErrorPropagatesToEveryWaiter(t *testing.T) {
	meta := tTable()
	boom := market.CallerFunc(func(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
		return market.Result{}, fmt.Errorf("market down")
	})
	s := newSched(boom, Config{Window: 20 * time.Millisecond})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, _, errs[0] = s.Fetch(context.Background(), reqFor(t, meta, 1, 5, false)) }()
	go func() { defer wg.Done(); _, _, errs[1] = s.Fetch(context.Background(), reqFor(t, meta, 6, 9, false)) }()
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != "market down" {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

func inflightCount(s *Scheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// TestShortDeadlineNeverParks: the coalesce window parks a small fetch only
// when the caller's deadline outlasts the window. With another query open,
// a deadline-free request and one with a deadline past the window park; one
// whose deadline ends inside the window is dispatched at once.
func TestShortDeadlineNeverParks(t *testing.T) {
	meta := tTable()
	s := newSched(&fakeCaller{meta: meta, t: 10}, Config{Window: 200 * time.Millisecond})
	_, closeOther := s.Open(context.Background())
	defer closeOther()
	for i, tc := range []struct {
		timeout time.Duration // 0: no deadline
		parks   bool
	}{{0, true}, {time.Minute, true}, {100 * time.Millisecond, false}} {
		ctx := context.Background()
		if tc.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, tc.timeout)
			defer cancel()
		}
		lo := int64(10 * (i + 1))
		_, info, err := s.Fetch(ctx, reqFor(t, meta, lo, lo+2, false))
		if err != nil {
			t.Fatal(err)
		}
		if info.Delayed != tc.parks {
			t.Errorf("deadline %v: parked %v, want %v", tc.timeout, info.Delayed, tc.parks)
		}
	}
}
