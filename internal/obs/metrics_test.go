package obs

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exposition")

// repeat calls f n times.
func repeat(n int, f func()) {
	for i := 0; i < n; i++ {
		f()
	}
}

// fillEveryFamily drives every observer so that each family ends non-zero,
// each counter with a value no other counter shares, and each histogram
// with observations in several buckets.
func fillEveryFamily(m *Metrics) {
	m.ObserveQuery(3*time.Millisecond, 200*time.Microsecond, 11, 1301, 17, 19.25)
	m.ObserveQuery(40*time.Millisecond, 3*time.Millisecond, 11, 1301, 17, 19.25)
	repeat(11, m.ObserveQueryError)
	m.ObserveFailedQuerySpend(5, 211, 13, 14.5)
	m.ObserveCall(7*time.Millisecond, 97, 4, 4.75)

	m.ObserveCallRetries(23)
	repeat(4, func() { m.ObserveStoreServed(true, 100) })
	m.ObserveStoreServed(false, 33)

	for i := 0; i < 6; i++ {
		m.ObserveStoreLookup(int64(60+i), 9, i < 5)
	}
	m.ObserveStoreCompaction(true, 20, 1)
	repeat(7, func() { m.ObserveStoreCompaction(true, 0, 0) })

	repeat(7, m.ObserveReplayedCall)
	repeat(9, m.ObserveBreakerOpen)
	repeat(10, m.ObserveBreakerShortCircuit)
	repeat(12, m.ObserveBreakerProbe)

	for i := 0; i < 14; i++ {
		m.ObserveWALAppend(1000+i, i%5 == 0, 70)
	}
	repeat(15, func() { m.ObserveWALReplay(16, 18, false) })
	m.ObserveWALReplay(0, 0, true)
	repeat(17, func() { m.ObserveCheckpoint(4096, 250, true) })
	repeat(18, func() { m.ObserveCheckpoint(0, 0, false) })
	repeat(19, m.ObserveAuditDrop)

	repeat(25, func() { m.ObservePlanCacheLookup(true, false) })
	repeat(26, func() { m.ObservePlanCacheLookup(false, false) })
	repeat(27, func() { m.ObservePlanCacheLookup(false, true) })
	repeat(24, m.ObservePlanCacheEviction)
	repeat(29, func() { m.ObservePlanner("cached") })
	repeat(31, func() { m.ObservePlanner("dp") })

	repeat(32, m.ObserveSchedSingleflightHit)
	repeat(33, func() { m.ObserveSchedMerge(2) })
	repeat(34, m.ObserveSchedDelayedCall)

	repeat(35, m.ObserveFederationCall)
	repeat(36, m.ObserveFederationFailover)
	repeat(37, m.ObserveFederationHedge)
	repeat(38, m.ObserveFederationHedgeWin)
	repeat(39, m.ObserveFederationExhausted)

	m.AddInflight(41)
	m.AddQueueDepth(42)

	for _, d := range []time.Duration{500 * time.Microsecond, 30 * time.Millisecond, 2 * time.Second, 20 * time.Second} {
		m.ObserveCallLatency(d)
	}
}

// TestMetricsGolden pins the whole exposition of a registry in which every
// family is non-zero, under both deployed prefixes ("payless" on the buyer
// client and the daemon, "market" on the seller). Dashboards, CI greps and
// the benchmark ledger scrape these names, so any change to a family name,
// type, HELP text, order or value format shows up here. Regenerate with
// `go test ./internal/obs -run TestMetricsGolden -update` only for an
// intended change.
func TestMetricsGolden(t *testing.T) {
	m := NewMetrics()
	fillEveryFamily(m)
	var b strings.Builder
	for _, prefix := range []string{"payless", "market"} {
		m.WritePrometheus(&b, prefix)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition has %d lines, %s has %d", len(gl), golden, len(wl))
	}
}

// observers calls every Observe*/Add* method of the registry once.
var observers = []struct {
	name    string
	observe func(*Metrics)
}{
	{"ObserveQuery", func(m *Metrics) { m.ObserveQuery(time.Millisecond, time.Microsecond, 1, 100, 1, 1) }},
	{"ObserveQueryError", (*Metrics).ObserveQueryError},
	{"ObserveStoreServed", func(m *Metrics) { m.ObserveStoreServed(true, 10) }},
	{"ObserveStoreLookup", func(m *Metrics) { m.ObserveStoreLookup(5, 2, true) }},
	{"ObserveStoreCompaction", func(m *Metrics) { m.ObserveStoreCompaction(true, 1, 1) }},
	{"ObserveReplayedCall", (*Metrics).ObserveReplayedCall},
	{"ObserveBreakerOpen", (*Metrics).ObserveBreakerOpen},
	{"ObserveBreakerShortCircuit", (*Metrics).ObserveBreakerShortCircuit},
	{"ObserveBreakerProbe", (*Metrics).ObserveBreakerProbe},
	{"ObserveFederationCall", (*Metrics).ObserveFederationCall},
	{"ObserveFederationFailover", (*Metrics).ObserveFederationFailover},
	{"ObserveFederationHedge", (*Metrics).ObserveFederationHedge},
	{"ObserveFederationHedgeWin", (*Metrics).ObserveFederationHedgeWin},
	{"ObserveFederationExhausted", (*Metrics).ObserveFederationExhausted},
	{"AddInflight", func(m *Metrics) { m.AddInflight(1) }},
	{"AddQueueDepth", func(m *Metrics) { m.AddQueueDepth(1) }},
	{"ObserveFailedQuerySpend", func(m *Metrics) { m.ObserveFailedQuerySpend(1, 100, 1, 1) }},
	{"ObserveWALAppend", func(m *Metrics) { m.ObserveWALAppend(64, true, 3) }},
	{"ObserveWALReplay", func(m *Metrics) { m.ObserveWALReplay(2, 1, true) }},
	{"ObserveCheckpoint", func(m *Metrics) { m.ObserveCheckpoint(4096, 7, true) }},
	{"ObserveAuditDrop", (*Metrics).ObserveAuditDrop},
	{"ObservePlanCacheLookup", func(m *Metrics) { m.ObservePlanCacheLookup(false, true) }},
	{"ObservePlanCacheEviction", (*Metrics).ObservePlanCacheEviction},
	{"ObservePlanner", func(m *Metrics) { m.ObservePlanner("cached") }},
	{"ObserveSchedSingleflightHit", (*Metrics).ObserveSchedSingleflightHit},
	{"ObserveSchedMerge", func(m *Metrics) { m.ObserveSchedMerge(1) }},
	{"ObserveSchedDelayedCall", (*Metrics).ObserveSchedDelayedCall},
	{"ObserveCallLatency", func(m *Metrics) { m.ObserveCallLatency(3 * time.Millisecond) }},
	{"ObserveCallRetries", func(m *Metrics) { m.ObserveCallRetries(2) }},
	{"ObserveCall", func(m *Metrics) { m.ObserveCall(time.Millisecond, 100, 1, 1) }},
}

// TestObserversAllocateNothing: the observers sit on every query's and
// every wire call's path, so none of them may allocate. The table must list
// every Observe*/Add* method, so a new observer cannot skip the gate.
func TestObserversAllocateNothing(t *testing.T) {
	listed := map[string]bool{}
	for _, o := range observers {
		listed[o.name] = true
	}
	mt := reflect.TypeOf(&Metrics{})
	for i := range mt.NumMethod() {
		name := mt.Method(i).Name
		if (strings.HasPrefix(name, "Observe") || strings.HasPrefix(name, "Add")) && !listed[name] {
			t.Errorf("observer %s is missing from the observers table", name)
		}
	}
	m := NewMetrics()
	for _, o := range observers {
		o.observe(m) // first observations allocate the histograms' buckets
		if n := testing.AllocsPerRun(100, func() { o.observe(m) }); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", o.name, n)
		}
	}
}

// TestSnapshotIsTheMetricTable: every Snapshot field declares a family of
// its own, a known Prometheus type matching its Go type, and HELP text.
func TestSnapshotIsTheMetricTable(t *testing.T) {
	seen := map[string]string{}
	st := reflect.TypeOf(Snapshot{})
	for i := range st.NumField() {
		f := st.Field(i)
		family, kind, _ := strings.Cut(f.Tag.Get("prom"), ",")
		if family == "" {
			t.Errorf("%s: no prom family", f.Name)
		} else if prev, dup := seen[family]; dup {
			t.Errorf("%s: family %q already declared by %s", f.Name, family, prev)
		}
		seen[family] = f.Name
		isHist := f.Type == reflect.TypeOf(HistogramSnapshot{})
		switch kind {
		case "counter", "gauge":
			if k := f.Type.Kind(); k != reflect.Int64 && k != reflect.Float64 {
				t.Errorf("%s: %s of Go type %s", f.Name, kind, f.Type)
			}
		case "histogram":
			if !isHist {
				t.Errorf("%s: histogram of Go type %s", f.Name, f.Type)
			}
		default:
			t.Errorf("%s: unknown metric type %q", f.Name, kind)
		}
		if isHist && kind != "histogram" {
			t.Errorf("%s: a HistogramSnapshot must be a histogram, not %q", f.Name, kind)
		}
		if f.Tag.Get("help") == "" {
			t.Errorf("%s: no help text", f.Name)
		}
	}
}
