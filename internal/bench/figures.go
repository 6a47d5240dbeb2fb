package bench

import (
	"fmt"
	"strings"

	payless "payless"

	"payless/internal/workload"
)

// Params controls experiment scale. Defaults keep runs laptop-fast while
// preserving the paper's relative shapes; the full paper scale can be
// requested through cmd/paylessbench flags.
type Params struct {
	RealCfg workload.WHWConfig
	TPCHCfg workload.TPCHConfig
	// QReal and QTPCH are the instances per template (the paper's q).
	QReal, QTPCH int
	// T is the page size (tuples per transaction).
	T           int
	Seed        int64
	SampleEvery int
}

// DefaultParams returns the harness's default scale.
func DefaultParams() Params {
	return Params{
		RealCfg:     workload.DefaultWHWConfig(),
		TPCHCfg:     workload.DefaultTPCHConfig(),
		QReal:       40,
		QTPCH:       10,
		T:           100,
		Seed:        42,
		SampleEvery: 10,
	}
}

// Figure is one regenerated evaluation artifact.
type Figure struct {
	ID    string
	Title string
	// Series are plotted against the number of queries replayed.
	Series []Series
	// Efforts is used by Figs. 14 and 15 instead of Series.
	Efforts []Effort
}

// Render prints the figure as aligned text rows (the same series the paper
// plots).
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Efforts) > 0 {
		fmt.Fprintf(&b, "%-28s %14s %18s %14s\n", "system", "avg plans", "avg boxes enum", "avg boxes kept")
		for _, e := range f.Efforts {
			fmt.Fprintf(&b, "%-28s %14.1f %18.1f %14.1f\n", e.System, e.AvgPlans, e.AvgBoxes, e.AvgKeptBoxes)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%-10s", "#queries")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %22s", s.System)
	}
	b.WriteString("\n")
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(&b, "%-10d", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %22d", s.Y[i])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig10 reproduces the overall-effectiveness figure: cumulative
// transactions for all four systems on one dataset ("real", "tpch" or
// "tpch-skew").
func Fig10(p Params, dataset string) (*Figure, error) {
	env, err := envFor(p, dataset)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "Fig10-" + dataset, Title: "Overall effectiveness (cumulative transactions)"}
	for _, kind := range []SystemKind{PayLess, PayLessNoSQR, MinimizingCalls, DownloadAll} {
		s, err := env.Cumulative(kind, p.SampleEvery, nil)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig11 varies the tuples-per-transaction page size t; PayLess vs Download
// All, as in the paper.
func Fig11(p Params, dataset string, ts []int) (*Figure, error) {
	return sweep(&Figure{ID: "Fig11-" + dataset, Title: "Varying tuples per transaction t"}, dataset, len(ts),
		func(i int) (Params, string) {
			p.T = ts[i]
			return p, fmt.Sprintf("t=%d", ts[i])
		})
}

// Fig12 varies q, the number of query instances per template.
func Fig12(p Params, dataset string, qs []int) (*Figure, error) {
	return sweep(&Figure{ID: "Fig12-" + dataset, Title: "Varying query instances per template q"}, dataset, len(qs),
		func(i int) (Params, string) {
			if dataset == "real" {
				p.QReal = qs[i]
			} else {
				p.QTPCH = qs[i]
			}
			return p, fmt.Sprintf("q=%d", qs[i])
		})
}

// Fig13 varies the data size D (TPC-H scale factor).
func Fig13(p Params, dataset string, ds []float64) (*Figure, error) {
	return sweep(&Figure{ID: "Fig13-" + dataset, Title: "Varying data size D"}, dataset, len(ds),
		func(i int) (Params, string) {
			p.TPCHCfg.ScaleFactor = ds[i]
			return p, fmt.Sprintf("D=%.1f", ds[i])
		})
}

// sweep adds a PayLess and a Download All series to fig for each of n
// points; point i runs at the parameters at(i) returns, and its series are
// labelled with the system and the point's label.
func sweep(fig *Figure, dataset string, n int, at func(i int) (Params, string)) (*Figure, error) {
	for i := 0; i < n; i++ {
		p, label := at(i)
		env, err := envFor(p, dataset)
		if err != nil {
			return nil, err
		}
		for _, kind := range []SystemKind{PayLess, DownloadAll} {
			s, err := env.Cumulative(kind, p.SampleEvery, nil)
			if err != nil {
				return nil, err
			}
			s.System = fmt.Sprintf("%s %s", kind, label)
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}

// variant is one configuration of an ablation figure.
type variant struct {
	name   string
	mutate func(*payless.Config)
}

// Fig14 reproduces the search-space reduction ablation: average number of
// evaluated (sub)plans for PayLess, Disable SQR and Disable All (SQR and
// Theorems 1–3 both off).
func Fig14(p Params, dataset string) (*Figure, error) {
	return ablation(&Figure{ID: "Fig14-" + dataset, Title: "Search space reduction (avg evaluated plans)"}, p, dataset, []variant{
		{"PayLess", nil},
		{"Disable SQR", func(c *payless.Config) { c.Consistency = payless.Strong() }},
		{"Disable All", func(c *payless.Config) { c.Consistency = payless.Strong(); c.DisableTheorems = true }},
	})
}

// Fig15 reproduces the bounding-box pruning ablation: average number of
// bounding boxes generated with and without Algorithm 1's pruning rules.
func Fig15(p Params, dataset string) (*Figure, error) {
	return ablation(&Figure{ID: "Fig15-" + dataset, Title: "Bounding box pruning (avg generated boxes)"}, p, dataset, []variant{
		{"PayLess", nil},
		{"No Pruning", func(c *payless.Config) { c.DisableBoxPruning = true }},
	})
}

// ablation adds each variant's search effort, on a fresh environment, to fig.
func ablation(fig *Figure, p Params, dataset string, variants []variant) (*Figure, error) {
	for _, v := range variants {
		env, err := envFor(p, dataset)
		if err != nil {
			return nil, err
		}
		eff, err := env.SearchEffort(v.mutate)
		if err != nil {
			return nil, err
		}
		eff.System = v.name
		fig.Efforts = append(fig.Efforts, eff)
	}
	return fig, nil
}
