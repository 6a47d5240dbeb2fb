package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // no regression seen, but the run's own noise is wider than the bound
)

// judge compares metric d of result b against base a. worse is the share of
// a's value by which b is worse (negative when better).
func judge(d endToEndDef, a, b metric) (worse float64, verdict string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / math.Abs(a.Value)
		if d.better == "higher" {
			worse = -worse
		}
	}
	switch {
	case d.exact:
		if a.Value != b.Value {
			return worse, verdictRegressed
		}
		return worse, verdictOK
	case worse > d.bound:
		return worse, verdictRegressed
	case noise(a) > d.bound || noise(b) > d.bound:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// noise estimates how uncertain a reported median is, as a share of it: the
// recorded pass quartile distance shrunk by √passes (the standard error of a
// median is ≈0.93·IQR/√n).
func noise(m metric) float64 {
	if m.Value == 0 || len(m.PerPass) == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value) / math.Sqrt(float64(len(m.PerPass)))
}

// compareFiles prints one row per workload × end-to-end metric of result
// file B against base A and returns the exit code: non-zero on any
// regression beyond the metric's bound or any change in an exact metric.
func compareFiles(w, stderr io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err == nil {
		var b *report
		if b, err = readReport(pathB); err == nil {
			return compareReports(w, a, b)
		}
	}
	fmt.Fprintln(stderr, "ledger -compare:", err)
	return 2
}

func compareReports(w io.Writer, a, b *report) int {
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "note: seeds differ (A %d, B %d): exact metrics are expected to differ\n", a.Seed, b.Seed)
	}
	byName := make(map[string]*workloadResult)
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-26s %13s %13s %9s %7s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-13s missing from B\n", wa.Name)
			code = 1
			continue
		}
		for _, d := range endToEndDefs {
			ma, mb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			_, verdict := judge(d, ma, mb)
			bound := fmt.Sprintf("%.0f%%", 100*d.bound)
			if d.exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-13s %-26s %13.6g %13.6g %9.4f %7s  %s\n",
				wa.Name, d.name, ma.Value, mb.Value, ratio(mb.Value, ma.Value), bound, verdict)
			if verdict == verdictRegressed {
				code = 1
			}
		}
	}
	return code
}
