package obs

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	end := tr.StartSpan("parse")
	end(nil)
	tr.AddCall(CallRecord{Transactions: 3})
	tr.AddStoreHit(10)
	tr.AddStoreRows(5)
	tr.SetPlan("p", 1)
	tr.SetCounters(1, 2, 3)
	tr.Finish()
	if tr.CallTransactions() != 0 || tr.Retries() != 0 {
		t.Error("nil trace should sum to zero")
	}
	if got := tr.Describe(); !strings.Contains(got, "no trace") {
		t.Errorf("nil Describe: %q", got)
	}
}

func TestTraceAccumulates(t *testing.T) {
	tr := NewTrace("SELECT 1")
	end := tr.StartSpan("parse")
	end(nil)
	tr.AddCall(CallRecord{Table: "Weather", Records: 120, Transactions: 2, Price: 2, Retries: 1, Latency: time.Millisecond})
	tr.AddCall(CallRecord{Table: "Weather", Records: 30, Transactions: 1, Price: 1})
	tr.AddStoreHit(40)
	tr.SetPlan("Weather(scan,3) est=3", 3)
	tr.SetCounters(4, 5, 2)
	tr.Finish()

	if got := tr.CallTransactions(); got != 3 {
		t.Errorf("CallTransactions = %d, want 3", got)
	}
	if got := tr.Retries(); got != 1 {
		t.Errorf("Retries = %d, want 1", got)
	}
	if tr.Total <= 0 {
		t.Error("Finish should stamp Total")
	}
	out := tr.Describe()
	for _, want := range []string{"SELECT 1", "parse", "2 call(s)", "3 transactions", "Weather", "4 plans evaluated", "1 access(es) served locally"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q in:\n%s", want, out)
		}
	}
}

func TestSpanRecordsError(t *testing.T) {
	tr := NewTrace("x")
	end := tr.StartSpan("bind")
	end(context.Canceled)
	if len(tr.Spans) != 1 || tr.Spans[0].Err == "" {
		t.Fatalf("span error not recorded: %+v", tr.Spans)
	}
}

func TestContextCallPropagation(t *testing.T) {
	rec := &CallRecord{}
	ctx := ContextWithCall(context.Background(), rec)
	got := CallFromContext(ctx)
	if got != rec {
		t.Fatal("record did not round-trip through context")
	}
	got.AddRetry()
	got.AddRetry()
	if rec.Retries != 2 {
		t.Errorf("Retries = %d, want 2", rec.Retries)
	}
	if CallFromContext(context.Background()) != nil {
		t.Error("empty context should yield nil record")
	}
	var nilRec *CallRecord
	nilRec.AddRetry() // must not panic
}

func TestMetricsCountersAndPrometheus(t *testing.T) {
	m := NewMetrics()
	m.ObserveQuery(10*time.Millisecond, time.Millisecond, 2, 150, 3, 3)
	m.ObserveQueryError()
	m.ObserveCallRetries(1)
	m.ObserveStoreServed(true, 25)

	s := m.Snapshot()
	if s.Queries != 1 || s.QueryErrors != 1 || s.Calls != 2 || s.Transactions != 3 {
		t.Errorf("snapshot counters: %+v", s)
	}
	if s.Retries != 1 || s.StoreHits != 1 || s.StoreHitRows != 25 {
		t.Errorf("retry and store counters: %+v", s)
	}

	var b strings.Builder
	m.WritePrometheus(&b, "payless")
	out := b.String()
	for _, want := range []string{
		"payless_queries_total 1",
		"payless_query_errors_total 1",
		"payless_calls_total 2",
		"payless_transactions_total 3",
		"payless_store_hit_rows_total 25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestCallDurationMetricsFamilies pins the call-latency histogram: one
// observation per wire call through ObserveCallLatency, traced or not. The
// exposition of payless_call_duration_seconds is pinned by TestMetricsGolden.
func TestCallDurationMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	m.ObserveCallLatency(4 * time.Millisecond)
	m.ObserveCallLatency(6 * time.Millisecond)

	s := m.Snapshot()
	if s.CallLatency.Count != 2 {
		t.Errorf("call latency count = %d, want 2", s.CallLatency.Count)
	}
	if q := s.CallLatency.Quantile(0.5); q < 4*time.Millisecond || q > 10*time.Millisecond {
		t.Errorf("p50 call latency = %v", q)
	}
}

func TestMetricsObserveCallSellerSide(t *testing.T) {
	m := NewMetrics()
	m.ObserveCall(2*time.Millisecond, 150, 2, 2, 150)
	m.ObserveCall(3*time.Millisecond, 50, 1, 1, 50)
	s := m.Snapshot()
	if s.Calls != 2 || s.Records != 200 || s.Transactions != 3 || s.Price != 3 {
		t.Errorf("seller-side counters: %+v", s)
	}
	srv := httptest.NewServer(m.Handler("market"))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "market_transactions_total 3") {
		t.Errorf("metrics endpoint output:\n%s", buf[:n])
	}
}

// TestFailureMetricsFamilies pins what the failure-recovery observers add
// to the snapshot; TestMetricsGolden pins the families' exposition.
func TestFailureMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	m.ObserveReplayedCall()
	m.ObserveBreakerOpen()
	m.ObserveBreakerShortCircuit()
	m.ObserveBreakerProbe()
	m.ObserveFailedQuerySpend(2, 150, 3, 3)

	s := m.Snapshot()
	if s.ReplayedCalls != 1 || s.BreakerOpens != 1 || s.BreakerShortCircuits != 1 || s.BreakerProbes != 1 {
		t.Errorf("failure counters: %+v", s)
	}
	if s.FailedQuerySpendTransactions != 3 || s.FailedQuerySpendPrice != 3 {
		t.Errorf("failed-spend counters: %+v", s)
	}
	// The failed query's spend joins the bill the successful ones feed.
	if s.Calls != 2 || s.Records != 150 || s.Transactions != 3 || s.Price != 3 {
		t.Errorf("bill counters: %+v", s)
	}
}

// TestDurabilityMetricsFamilies pins what the durable store's observers add
// to the snapshot; TestMetricsGolden pins the families' exposition.
func TestDurabilityMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	m.ObserveWALAppend(100, true, 40)
	m.ObserveWALAppend(50, false, 10)
	m.ObserveWALReplay(7, 2, true)
	m.ObserveCheckpoint(1000, 300, true)
	m.ObserveCheckpoint(0, 0, false)
	m.ObserveAuditDrop()

	s := m.Snapshot()
	if s.WALAppends != 2 || s.WALAppendBytes != 150 || s.WALAppendMicros != 50 || s.WALSyncedAppends != 1 {
		t.Errorf("wal append counters: %+v", s)
	}
	if s.WALReplays != 1 || s.WALReplayedRecords != 7 || s.WALSkippedRecords != 2 || s.WALTornTails != 1 {
		t.Errorf("wal replay counters: %+v", s)
	}
	if s.Checkpoints != 1 || s.CheckpointFailures != 1 || s.CheckpointBytes != 1000 || s.CheckpointMicros != 300 {
		t.Errorf("checkpoint counters: %+v", s)
	}
	if s.AuditDropped != 1 {
		t.Errorf("audit drop counter: %+v", s)
	}
}

// TestNilMetricsIsNoOp: every observer is safe on a nil registry, whose
// snapshot stays empty.
func TestNilMetricsIsNoOp(t *testing.T) {
	var m *Metrics
	for _, o := range observers {
		o.observe(m)
	}
	if s := m.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Errorf("nil metrics snapshot: %+v", s)
	}
	var b strings.Builder
	m.WritePrometheus(&b, "payless")
	if !strings.Contains(b.String(), "payless_queries_total 0\n") {
		t.Errorf("nil metrics exposition:\n%s", b.String())
	}
}

// TestFederationMetricsFamilies pins what the federated caller's observers
// add to the snapshot; TestMetricsGolden pins the families' exposition.
func TestFederationMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	m.ObserveFederationCall()
	m.ObserveFederationCall()
	m.ObserveFederationFailover()
	m.ObserveFederationHedge()
	m.ObserveFederationHedgeWin()
	m.ObserveFederationExhausted()

	s := m.Snapshot()
	if s.FederationCalls != 2 || s.FederationFailovers != 1 ||
		s.FederationHedges != 1 || s.FederationHedgeWins != 1 || s.FederationExhausted != 1 {
		t.Errorf("federation counters: %+v", s)
	}

	// Nil-safety of the federation observers (the federated caller takes a
	// possibly-nil sink).
	var nm *Metrics
	nm.ObserveFederationCall()
	nm.ObserveFederationFailover()
	nm.ObserveFederationHedge()
	nm.ObserveFederationHedgeWin()
	nm.ObserveFederationExhausted()
	if s := nm.Snapshot(); s.FederationCalls != 0 {
		t.Errorf("nil metrics federation snapshot: %+v", s)
	}
}

// TestOverloadMetricsFamilies pins the overload gauges: they move both ways.
// TestMetricsGolden pins their exposition, gauge TYPE lines included.
func TestOverloadMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	m.AddInflight(1)
	m.AddInflight(1)
	m.AddInflight(-1)
	m.AddQueueDepth(1)
	m.AddQueueDepth(1)
	m.AddQueueDepth(1)
	m.AddQueueDepth(-1)

	s := m.Snapshot()
	if s.InflightQueries != 1 || s.QueueDepth != 2 {
		t.Errorf("gauges: inflight=%d queue=%d, want 1 2", s.InflightQueries, s.QueueDepth)
	}

	var nm *Metrics
	nm.AddInflight(1)
	nm.AddQueueDepth(1)
	if s := nm.Snapshot(); s.InflightQueries != 0 || s.QueueDepth != 0 {
		t.Errorf("nil metrics gauge snapshot: %+v", s)
	}
}
