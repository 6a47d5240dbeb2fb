package main

import (
	"bytes"
	"strings"
	"testing"
)

func defByName(t *testing.T, name string) endToEndDef {
	t.Helper()
	for _, d := range endToEndDefs {
		if d.name == name {
			return d
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return endToEndDef{}
}

func TestJudge(t *testing.T) {
	fourPasses := make([]float64, 4) // noise = pass spread / √4
	tight := func(v float64) metric { return metric{Value: v, Q1: v * 0.99, Q3: v * 1.01, PerPass: fourPasses} }
	wide := func(v float64) metric { return metric{Value: v, Q1: v * 0.7, Q3: v * 1.3, PerPass: fourPasses} }
	for _, c := range []struct {
		name string
		a, b metric
		want string
	}{
		{"qps", tight(100), tight(85), verdictOK},          // 15 % slower, bound 25 %
		{"qps", tight(100), tight(70), verdictRegressed},   // higher is better
		{"qps", tight(100), tight(130), verdictOK},         // faster is never a regression
		{"p50_ms", tight(1), tight(1.3), verdictRegressed}, // lower is better
		{"p50_ms", tight(1), tight(0.5), verdictOK},
		{"p50_ms", wide(1), tight(1.02), verdictUnresolved}, // passes spread 60 % over 4 passes, bound 25 %
		{"p50_ms", wide(1), tight(1.5), verdictRegressed},   // a regression stays one
		{"tx_per_query", tight(0.7), tight(0.7), verdictOK},
		{"tx_per_query", tight(0.7), tight(0.69), verdictRegressed}, // exact: any change
		{"error_rate", metric{}, metric{Value: 0.001}, verdictRegressed},
		{"daemon_allocs_per_query", tight(1000), tight(1060), verdictOK},
		{"daemon_allocs_per_query", tight(1000), tight(1100), verdictRegressed},
	} {
		if _, got := judge(defByName(t, c.name), c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestCompareReportsExitCode(t *testing.T) {
	mk := func(qps, tx float64) *report {
		e := make(map[string]metric)
		for _, d := range endToEndDefs {
			e[d.name] = metric{Value: 1, Q1: 1, Q3: 1, Unit: d.unit}
		}
		e["qps"] = metric{Value: qps, Q1: qps, Q3: qps}
		e["tx_per_query"] = metric{Value: tx, Q1: tx, Q3: tx}
		return &report{Seed: 42, Workloads: []*workloadResult{{Name: "whw_buy", EndToEnd: e}}}
	}
	var out bytes.Buffer
	if code := compareReports(&out, mk(100, 0.7), mk(98, 0.7)); code != 0 {
		t.Errorf("within bounds: exit %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(&out, mk(100, 0.7), mk(70, 0.7)); code == 0 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("qps -30%%: exit %d, want non-zero and a regressed row\n%s", code, out.String())
	}
	if code := compareReports(&out, mk(100, 0.7), mk(100, 0.71)); code == 0 {
		t.Error("a moved bill must fail the comparison")
	}
	if code := compareReports(&out, mk(100, 0.7), &report{Seed: 42}); code == 0 {
		t.Error("a workload missing from B must fail the comparison")
	}
}
