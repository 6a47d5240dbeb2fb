package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the ledger binary: the driver
// spawns os.Executable() with -role=…, which here is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && strings.HasPrefix(os.Args[1], roleFlagPrefix) {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func smokeRun(t *testing.T, trace string) *report {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-trace", trace, "-workdir", filepath.Join(dir, "work"), "-results", dir, "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("ledger -smoke exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "work", "children.pids")); !os.IsNotExist(err) {
		t.Errorf("pid file left behind (err %v)", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "work", "run-*")); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	return rep
}

// TestSmoke runs every workload at smoke scale, twice, and asserts only
// deterministic quantities: no failed request, covered requests bill
// nothing, the three bills agree, the bill repeats, and every metric
// BENCHMARK.json names is reported with the unit it names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns market and daemon processes")
	}
	first, second := smokeRun(t, "1"), smokeRun(t, "0")
	bench := readBenchmarkJSON(t)
	if len(first.Workloads) != len(bench.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json lists %d", len(first.Workloads), len(bench.Workloads))
	}
	for i, w := range first.Workloads {
		if w.Name != bench.Workloads[i].Name || w.Why != bench.Workloads[i].Why {
			t.Errorf("workload %d is %q (%s); BENCHMARK.json says %q (%s)", i, w.Name, w.Why, bench.Workloads[i].Name, bench.Workloads[i].Why)
		}
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed: %v", w.Name, w.Failed, w.Attempted, w.Errors)
		}
		if got := w.EndToEnd["error_rate"].Value; got != 0 {
			t.Errorf("%s: error_rate %v, want 0", w.Name, got)
		}
		if got := w.PerLayer["tenant.ledger_minus_meter"].Value; got != 0 {
			t.Errorf("%s: tenant ledgers and seller meter differ by %v transactions", w.Name, got)
		}
		if got := w.PerLayer["daemon.shed_total"].Value; got != 0 {
			t.Errorf("%s: %v requests shed", w.Name, got)
		}
		if got, again := w.EndToEnd["tx_per_query"].Value, second.Workloads[i].EndToEnd["tx_per_query"].Value; got != again || got == 0 {
			t.Errorf("%s: tx_per_query %v then %v, want equal and non-zero", w.Name, got, again)
		}
		for _, m := range bench.EndToEnd {
			if got, ok := w.EndToEnd[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s [%s] reported as %+v", w.Name, m.Name, m.Unit, got)
			}
		}
		for _, m := range bench.PerLayer {
			if got, ok := w.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s [%s] reported as %+v", w.Name, m.Name, m.Unit, got)
			}
		}
		if spec, _ := specByName(w.Name); spec.covered {
			// The whole bill is the pre-warm: the measured window added nothing.
			if got := w.PerLayer["connector.calls_per_query"].Value; got != 0 {
				t.Errorf("%s: covered workload made %v market calls per measured query", w.Name, got)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram pins the contract file to the tables
// the program prints from.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bench := readBenchmarkJSON(t)
	gated := gatedEndToEnd()
	if len(bench.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program gates %d", len(bench.EndToEnd), len(gated))
	}
	for i, m := range bench.EndToEnd {
		d := endToEndDefs[0]
		for _, x := range endToEndDefs {
			if x.name == m.Name {
				d = x
			}
		}
		if m.Name != gated[i] || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bench.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(bench.PerLayer), len(perLayerNames))
	}
	for i, m := range bench.PerLayer {
		if m.Name != perLayerNames[i] {
			t.Errorf("per_layer[%d] = %s, program has %s", i, m.Name, perLayerNames[i])
		}
	}
}

func TestStaleChildrenAreRecognised(t *testing.T) {
	root := t.TempDir()
	// This test process is alive but is no ledger role; pid 0 never is.
	if err := os.WriteFile(pidFile(root), []byte("0\nnot-a-pid\n"+strings.Repeat("9", 7)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if live := liveChildren(root); len(live) != 0 {
		t.Errorf("liveChildren = %v, want none", live)
	}
	sup, err := newSupervisor(root)
	if err != nil {
		t.Fatal(err)
	}
	sup.close()
}
