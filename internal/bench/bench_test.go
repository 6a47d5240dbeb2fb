package bench

import (
	"strings"
	"testing"

	"payless/internal/workload"
)

// tinyParams keeps unit tests fast.
func tinyParams() Params {
	return Params{
		RealCfg: workload.WHWConfig{
			Seed: 3, Countries: 6, StationsPerCountry: 30, CitiesPerCountry: 4,
			Days: 40, StartDate: 20140601, Zips: 300, MaxRank: 100,
		},
		TPCHCfg:     workload.TPCHConfig{Seed: 3, ScaleFactor: 0.05},
		QReal:       3,
		QTPCH:       2,
		T:           100,
		Seed:        9,
		SampleEvery: 5,
	}
}

func TestFig10RealShape(t *testing.T) {
	fig, err := Fig10(tinyParams(), "real")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	final := map[string]int64{}
	for _, s := range fig.Series {
		if len(s.Y) == 0 {
			t.Fatalf("empty series %s", s.System)
		}
		final[s.System] = s.Y[len(s.Y)-1]
		// Cumulative series must be non-decreasing.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("%s: cumulative series decreased at %d", s.System, i)
			}
		}
	}
	// The tiny-scale bill, pinned to the transaction.
	for sys, want := range map[string]int64{
		"PayLess": 31, "PayLess w/o SQR": 40, "Minimizing Calls": 58, "Download All": 89,
	} {
		if final[sys] != want {
			t.Errorf("%s final = %d, want %d", sys, final[sys], want)
		}
	}
	// Orderings from Fig. 10a: PayLess <= w/o SQR <= Minimizing Calls, and
	// PayLess below Download All on the real workload.
	if final["PayLess"] > final["PayLess w/o SQR"] {
		t.Errorf("PayLess (%d) should not exceed w/o SQR (%d)", final["PayLess"], final["PayLess w/o SQR"])
	}
	if final["PayLess w/o SQR"] > final["Minimizing Calls"] {
		t.Errorf("w/o SQR (%d) should not exceed Minimizing Calls (%d)", final["PayLess w/o SQR"], final["Minimizing Calls"])
	}
	if final["PayLess"] >= final["Download All"] {
		t.Errorf("PayLess (%d) should beat Download All (%d) on the real workload",
			final["PayLess"], final["Download All"])
	}
	out := fig.Render()
	if !strings.Contains(out, "PayLess") || !strings.Contains(out, "#queries") {
		t.Errorf("render: %s", out)
	}
}

// TestPayLessBillPinned owns the default bill: PayLess's final cumulative
// transactions at DefaultParams, per dataset and seed. Seed 4 on real is the
// one run where the estimator's choices cost money against exact counts.
func TestPayLessBillPinned(t *testing.T) {
	for _, c := range []struct {
		dataset string
		seed    int64
		want    int64
	}{
		{"real", 4, 436},
		{"tpch", 42, 392},
		{"tpch-skew", 42, 286},
		{"tpch-skew", 4, 211},
	} {
		p := DefaultParams()
		p.Seed = c.seed
		env, err := envFor(p, c.dataset)
		if err != nil {
			t.Fatal(err)
		}
		s, err := env.Cumulative(PayLess, p.SampleEvery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Y[len(s.Y)-1]; got != c.want {
			t.Errorf("%s seed %d: PayLess final = %d, want %d", c.dataset, c.seed, got, c.want)
		}
	}
}

func TestFig10TPCHPlateaus(t *testing.T) {
	p := tinyParams()
	p.QTPCH = 6
	env, err := envFor(p, "tpch")
	if err != nil {
		t.Fatal(err)
	}
	s, err := env.Cumulative(PayLess, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Once the whole dataset is cached, the series must go flat: the last
	// increments shrink to (near) zero. Check the tail grows slower than
	// the head.
	n := len(s.Y)
	if n < 10 {
		t.Fatalf("series too short: %d", n)
	}
	head := s.Y[n/3]
	tailGrowth := s.Y[n-1] - s.Y[n-1-n/3]
	if tailGrowth > head {
		t.Errorf("PayLess on TPC-H should flatten: head=%d tailGrowth=%d", head, tailGrowth)
	}
	// And cumulative spend never exceeds a small multiple of Download All
	// (it approaches the whole-dataset cost from below, §5).
	if s.Y[n-1] > 3*env.DownloadAllCost() {
		t.Errorf("PayLess spend %d far exceeds dataset cost %d", s.Y[n-1], env.DownloadAllCost())
	}
}

func TestFig11VaryT(t *testing.T) {
	fig, err := Fig11(tinyParams(), "real", []int{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	// Smaller t means more transactions for the same tuples.
	var pay50, pay100 int64
	for _, s := range fig.Series {
		switch s.System {
		case "PayLess t=50":
			pay50 = s.Y[len(s.Y)-1]
		case "PayLess t=100":
			pay100 = s.Y[len(s.Y)-1]
		}
	}
	if pay50 < pay100 {
		t.Errorf("t=50 (%d) should cost at least t=100 (%d)", pay50, pay100)
	}
}

func TestFig12VaryQ(t *testing.T) {
	fig, err := Fig12(tinyParams(), "real", []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if strings.HasPrefix(s.System, "PayLess") && s.Y[len(s.Y)-1] <= 0 {
			t.Errorf("%s: no spend recorded", s.System)
		}
	}
}

func TestFig13VaryD(t *testing.T) {
	fig, err := Fig13(tinyParams(), "tpch", []float64{0.05, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var dl05, dl10 int64
	for _, s := range fig.Series {
		if strings.HasPrefix(s.System, "Download All") {
			if strings.HasSuffix(s.System, "0.1") {
				dl10 = s.Y[len(s.Y)-1]
			} else {
				dl05 = s.Y[len(s.Y)-1]
			}
		}
	}
	if dl10 <= dl05 {
		t.Errorf("bigger data must cost more to download: D=0.05 %d, D=0.1 %d", dl05, dl10)
	}
}

func TestFig14Ablation(t *testing.T) {
	fig, err := Fig14(tinyParams(), "real")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Efforts) != 3 {
		t.Fatalf("efforts: %d", len(fig.Efforts))
	}
	pay := fig.Efforts[0]
	noSQR := fig.Efforts[1]
	all := fig.Efforts[2]
	if pay.AvgPlans > noSQR.AvgPlans {
		t.Errorf("SQR should shrink the search space: PayLess %.1f vs Disable SQR %.1f",
			pay.AvgPlans, noSQR.AvgPlans)
	}
	if noSQR.AvgPlans >= all.AvgPlans {
		t.Errorf("theorems should shrink the search space: Disable SQR %.1f vs Disable All %.1f",
			noSQR.AvgPlans, all.AvgPlans)
	}
	out := fig.Render()
	if !strings.Contains(out, "Disable All") {
		t.Errorf("render: %s", out)
	}
}

func TestFig15Pruning(t *testing.T) {
	fig, err := Fig15(tinyParams(), "real")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Efforts) != 2 {
		t.Fatalf("efforts: %d", len(fig.Efforts))
	}
	pay, noPrune := fig.Efforts[0], fig.Efforts[1]
	// Enumeration counts match; kept counts must shrink with pruning.
	if pay.AvgKeptBoxes > noPrune.AvgKeptBoxes {
		t.Errorf("pruning should keep fewer boxes: %.1f vs %.1f", pay.AvgKeptBoxes, noPrune.AvgKeptBoxes)
	}
}

func TestEnvErrors(t *testing.T) {
	if _, err := envFor(tinyParams(), "nope"); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestDownloadAllCost(t *testing.T) {
	env, err := envFor(tinyParams(), "real")
	if err != nil {
		t.Fatal(err)
	}
	if env.DownloadAllCost() <= 0 {
		t.Error("download-all cost must be positive")
	}
}

func TestRenderAll(t *testing.T) {
	var buf strings.Builder
	req := Request{
		Figures:  []string{"10", "14"},
		Datasets: []string{"real"},
		Params:   tinyParams(),
	}
	if err := RenderAll(req, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig10-real", "Fig14-real", "Download All", "Disable All", "regenerated in"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The extension figures are tests now: "daemon" is as unknown as "99".
	for _, name := range []string{"99", "daemon"} {
		err := RenderAll(Request{Figures: []string{name}, Datasets: []string{"real"}, Params: tinyParams()}, &buf)
		if err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Errorf("figure %q: err = %v, want unknown figure", name, err)
		}
	}
}

func TestRenderAllSkipsFig13Real(t *testing.T) {
	var buf strings.Builder
	req := Request{Figures: []string{"13"}, Datasets: []string{"real"}, Params: tinyParams()}
	if err := RenderAll(req, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("Fig13 on real data should be skipped: %q", buf.String())
	}
}

func TestRequestDefaults(t *testing.T) {
	var r Request
	if len(r.figures()) != len(runners) || len(r.datasets()) != 3 {
		t.Error("defaults")
	}
	if got := r.qValues("real"); got[0] != 10 {
		t.Errorf("real q defaults: %v", got)
	}
	if got := r.qValues("tpch"); got[0] != 5 {
		t.Errorf("tpch q defaults: %v", got)
	}
	if len(r.tValues()) != 3 || len(r.dValues()) != 3 {
		t.Error("sweep defaults")
	}
}

func TestFigureMarkdown(t *testing.T) {
	fig := &Figure{ID: "FigX", Title: "demo", Series: []Series{
		{System: "PayLess", X: []int{1, 2}, Y: []int64{3, 4}},
		{System: "Download All", X: []int{1, 2}, Y: []int64{9, 9}},
	}}
	md := fig.Markdown()
	for _, want := range []string{"### FigX", "| #queries |", "| PayLess |", "| 2 | 4 | 9 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	eff := &Figure{ID: "FigY", Title: "effort", Efforts: []Effort{{System: "PayLess", AvgPlans: 2.5}}}
	md2 := eff.Markdown()
	if !strings.Contains(md2, "| PayLess | 2.5 |") {
		t.Errorf("effort markdown:\n%s", md2)
	}
}
