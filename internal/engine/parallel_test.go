package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/core"
	"payless/internal/market"
	"payless/internal/obs"
	"payless/internal/region"
	"payless/internal/sched"
	"payless/internal/stats"
)

// poolCaller records in-flight concurrency and fails chosen calls.
type poolCaller struct {
	delay    time.Duration
	failAt   map[int]error // by call sequence (1-based)
	mu       sync.Mutex
	seq      int
	inflight int
	peak     int
	calls    []string // table names in completion order
}

func (p *poolCaller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	p.mu.Lock()
	p.seq++
	seq := p.seq
	p.inflight++
	if p.inflight > p.peak {
		p.peak = p.inflight
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inflight--
		p.calls = append(p.calls, q.Table)
		p.mu.Unlock()
	}()
	if p.delay > 0 {
		select {
		case <-ctx.Done():
			return market.Result{}, ctx.Err()
		case <-time.After(p.delay):
		}
	}
	if err := p.failAt[seq]; err != nil {
		return market.Result{}, err
	}
	return market.Result{Records: 1, Transactions: 1, Price: 1}, nil
}

func testSpecs(n int) []callSpec {
	meta := rTable()
	specs := make([]callSpec, n)
	for i := range specs {
		lo, hi := int64(i), int64(i)+1
		specs[i] = callSpec{
			meta: meta,
			box:  region.Box{Dims: []region.Interval{{Lo: lo, Hi: hi}}},
			// Distinct queries, or the scheduler would single-flight them.
			q: catalog.AccessQuery{Dataset: "DS", Table: "R", Preds: []catalog.Pred{{Attr: "a", Lo: &lo, Hi: &hi}}},
		}
	}
	return specs
}

func TestRunBatchBoundsConcurrency(t *testing.T) {
	pc := &poolCaller{delay: 5 * time.Millisecond}
	e := &Engine{Stats: stats.New(), Sched: sched.New(pc, sched.Config{}), Concurrency: 3}
	var rep Report
	results, err := e.runBatch(context.Background(), testSpecs(10), &rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("results: %d", len(results))
	}
	if rep.Calls != 10 || rep.Transactions != 10 {
		t.Errorf("report: %+v", rep)
	}
	if pc.peak > 3 {
		t.Errorf("peak in-flight %d exceeds pool width 3", pc.peak)
	}
	if pc.peak < 2 {
		t.Errorf("pool never overlapped calls (peak %d)", pc.peak)
	}
}

func TestRunBatchSerialFailsFast(t *testing.T) {
	boom := errors.New("boom")
	pc := &poolCaller{failAt: map[int]error{2: boom}}
	e := &Engine{Stats: stats.New(), Sched: sched.New(pc, sched.Config{}), Concurrency: 1}
	var rep Report
	_, err := e.runBatch(context.Background(), testSpecs(6), &rep)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	// Serial mode must stop at the failing call, exactly like the old loop:
	// call 1 succeeded and is billed, call 2 failed, calls 3+ never issued.
	if pc.seq != 2 {
		t.Errorf("issued %d calls after a serial failure, want 2", pc.seq)
	}
	if rep.Calls != 1 {
		t.Errorf("billed %d calls, want 1 (the pre-failure success)", rep.Calls)
	}
}

func TestRunBatchSurfacesRootCauseNotCancellation(t *testing.T) {
	boom := errors.New("boom")
	// The first call fails fast while its five siblings sleep; their
	// cancellation errors must not mask the root cause.
	pc := &poolCaller{delay: 20 * time.Millisecond, failAt: map[int]error{1: boom}}
	e := &Engine{Stats: stats.New(), Sched: sched.New(pc, sched.Config{}), Concurrency: 6}
	var rep Report
	_, err := e.runBatch(context.Background(), testSpecs(6), &rep)
	if !errors.Is(err, boom) {
		t.Fatalf("root cause masked: got %v", err)
	}
}

func TestRunBatchKeepsPaidResultsOnFailure(t *testing.T) {
	boom := errors.New("boom")
	pc := &poolCaller{failAt: map[int]error{4: boom}}
	e := &Engine{Stats: stats.New(), Sched: sched.New(pc, sched.Config{}), Concurrency: 2}
	var rep Report
	_, err := e.runBatch(context.Background(), testSpecs(8), &rep)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	// Calls that completed before the failure are paid for and must be
	// accounted, even though the batch as a whole failed.
	if rep.Calls == 0 {
		t.Error("pre-failure successes were dropped from the report")
	}
	if rep.Calls > 7 {
		t.Errorf("too many calls billed after fail-fast: %d", rep.Calls)
	}
}

func TestRunBatchHonorsParentCancellation(t *testing.T) {
	pc := &poolCaller{delay: time.Second}
	e := &Engine{Stats: stats.New(), Sched: sched.New(pc, sched.Config{}), Concurrency: 4}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	var rep Report
	start := time.Now()
	_, err := e.runBatch(ctx, testSpecs(4), &rep)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("cancellation did not stop in-flight calls")
	}
}

func TestRunBatchEmpty(t *testing.T) {
	e := &Engine{Stats: stats.New(), Sched: sched.New(&poolCaller{}, sched.Config{}), Concurrency: 4}
	var rep Report
	results, err := e.runBatch(context.Background(), nil, &rep)
	if err != nil || results != nil {
		t.Fatalf("empty batch: %v %v", results, err)
	}
}

// TestRemainderBatchFusesTouchingPieces: two planned remainder pieces that
// touch go out as one wire call even at fetch concurrency 1, where no window
// could ever have merged them, bill no more than the pieces would apart, and
// leave both covered.
func TestRemainderBatchFusesTouchingPieces(t *testing.T) {
	f := newFixture(t)
	var calls atomic.Int64
	caller := market.CallerFunc(func(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
		calls.Add(1)
		return market.AccountCaller{Market: f.m, Key: "k"}.Call(ctx, q)
	})
	metrics := obs.NewMetrics()
	e := Engine{Store: f.store, Stats: f.st, Sched: sched.New(caller, sched.Config{Metrics: metrics}), Concurrency: 1}
	meta, _ := f.cat.Lookup("R")
	aRange := func(lo, hi int64) region.Box {
		b := meta.FullBox().Clone()
		b.Dims[0] = region.Interval{Lo: lo, Hi: hi + 1}
		return b
	}
	pieces := []region.Box{aRange(1, 3), aRange(4, 6)}
	cfg := core.RewriteConfig(meta, &e.Options)
	var rem []region.Box
	for _, b := range pieces {
		rem = append(rem, core.Remainder(f.store, f.st, "R", b, cfg, time.Time{}, nil).Boxes...)
	}
	specs, err := specsForBoxes(meta, rem, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("planned %d remainder calls, want 2", len(specs))
	}
	var rep Report
	if _, err := e.runBatch(context.Background(), specs, &rep); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("wire calls: %d, want 1 fused call", calls.Load())
	}
	// Apart, each piece's 12 rows would bill 1 transaction at t = 100.
	if rep.Transactions != 1 || rep.Records != 24 {
		t.Fatalf("report %+v, want 24 records for 1 transaction", rep)
	}
	for _, b := range pieces {
		if !f.store.Covered("R", b, time.Time{}) {
			t.Fatalf("piece %v not covered after the fused call", b)
		}
	}
	if st := metrics.Snapshot(); st.SchedMergedCalls != 1 || st.SchedMergedTransactionsSaved != 1 {
		t.Fatalf("fusion not booked as a merge: %+v", st)
	}
}
