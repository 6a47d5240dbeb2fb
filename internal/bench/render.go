package bench

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// Request selects which figures and datasets Each regenerates.
type Request struct {
	// Figures lists figure names ("10".."15", "conc", "store", ...); empty
	// means all of them.
	Figures []string
	// Datasets lists "real", "tpch", "tpch-skew"; empty means all.
	Datasets []string
	Params   Params
	// TValues, QRealValues, QTPCHValues and DValues override the swept
	// parameter grids; nil picks the defaults used in EXPERIMENTS.md.
	TValues     []int
	QRealValues []int
	QTPCHValues []int
	DValues     []float64
	// ConcTrace enables per-query tracing in the concurrency figure and
	// adds traced-call/retry series (paylessbench -trace).
	ConcTrace bool
}

func (r *Request) figures() []string {
	if len(r.Figures) > 0 {
		return r.Figures
	}
	names := make([]string, len(runners))
	for i, rn := range runners {
		names[i] = rn.name
	}
	return names
}

func (r *Request) datasets() []string {
	if len(r.Datasets) > 0 {
		return r.Datasets
	}
	return []string{"real", "tpch", "tpch-skew"}
}

func (r *Request) tValues() []int {
	if len(r.TValues) > 0 {
		return r.TValues
	}
	return []int{50, 100, 500}
}

func (r *Request) qValues(dataset string) []int {
	if dataset == "real" {
		if len(r.QRealValues) > 0 {
			return r.QRealValues
		}
		return []int{10, 20, 30}
	}
	if len(r.QTPCHValues) > 0 {
		return r.QTPCHValues
	}
	return []int{5, 10, 20}
}

func (r *Request) dValues() []float64 {
	if len(r.DValues) > 0 {
		return r.DValues
	}
	return []float64{0.5, 1, 2}
}

// runner regenerates one figure. A per-dataset runner runs once for each
// requested dataset and may return a nil figure to skip one; the others run
// once per request and get an empty dataset.
type runner struct {
	name       string
	perDataset bool
	run        func(req Request, ds string) (*Figure, error)
}

// runners is every figure paylessbench regenerates, in "all" order.
var runners = []runner{
	{"10", true, func(r Request, ds string) (*Figure, error) { return Fig10(r.Params, ds) }},
	{"11", true, func(r Request, ds string) (*Figure, error) { return Fig11(r.Params, ds, r.tValues()) }},
	{"12", true, func(r Request, ds string) (*Figure, error) { return Fig12(r.Params, ds, r.qValues(ds)) }},
	{"13", true, func(r Request, ds string) (*Figure, error) {
		if ds == "real" {
			return nil, nil // Fig. 13 varies the synthetic data size only
		}
		return Fig13(r.Params, ds, r.dValues())
	}},
	{"14", true, func(r Request, ds string) (*Figure, error) { return Fig14(r.Params, ds) }},
	{"15", true, func(r Request, ds string) (*Figure, error) { return Fig15(r.Params, ds) }},
	{"conc", false, func(r Request, _ string) (*Figure, error) {
		cp := DefaultConcurrencyParams()
		cp.Trace = r.ConcTrace
		return FigConcurrency(cp)
	}},
	{"shared", false, func(Request, string) (*Figure, error) { return FigShared(DefaultSharedParams()) }},
	{"daemon", false, func(Request, string) (*Figure, error) { return FigDaemon(DefaultDaemonParams()) }},
	{"store", false, func(Request, string) (*Figure, error) { return FigStore(DefaultStoreParams()) }},
	{"faults", false, func(Request, string) (*Figure, error) { return FigFaults(DefaultFaultParams()) }},
	{"durability", false, func(Request, string) (*Figure, error) { return FigDurability(DefaultDurabilityParams()) }},
	{"plan", false, func(Request, string) (*Figure, error) { return FigPlan(DefaultPlanParams()) }},
	{"federation", false, func(Request, string) (*Figure, error) { return FigFederation(DefaultFederationParams()) }},
	{"overload", false, func(Request, string) (*Figure, error) { return FigOverload(DefaultOverloadParams()) }},
}

// Each regenerates the requested figures in request order and hands each
// to emit with the time it took to regenerate.
func Each(req Request, emit func(fig *Figure, took time.Duration)) error {
	for _, name := range req.figures() {
		i := slices.IndexFunc(runners, func(rn runner) bool { return rn.name == name })
		if i < 0 {
			return fmt.Errorf("unknown figure %q", name)
		}
		rn, datasets := runners[i], []string{""}
		if rn.perDataset {
			datasets = req.datasets()
		}
		for _, ds := range datasets {
			start := time.Now()
			fig, err := rn.run(req, ds)
			switch {
			case err != nil && ds != "":
				return fmt.Errorf("fig %s (%s): %w", name, ds, err)
			case err != nil:
				return fmt.Errorf("fig %s: %w", name, err)
			case fig != nil:
				emit(fig, time.Since(start))
			}
		}
	}
	return nil
}

// RenderAll regenerates the requested figures and writes their rendered
// series to w.
func RenderAll(req Request, w io.Writer) error {
	return Each(req, func(fig *Figure, took time.Duration) {
		fmt.Fprint(w, fig.Render())
		fmt.Fprintf(w, "   (regenerated in %v)\n\n", took.Round(time.Millisecond))
	})
}

// Markdown renders a figure as a GitHub-flavoured markdown table.
func (f *Figure) Markdown() string {
	out := fmt.Sprintf("### %s — %s\n\n", f.ID, f.Title)
	if len(f.Efforts) > 0 {
		out += "| system | avg plans | avg boxes enumerated | avg boxes kept |\n|---|---|---|---|\n"
		for _, e := range f.Efforts {
			out += fmt.Sprintf("| %s | %.1f | %.1f | %.1f |\n", e.System, e.AvgPlans, e.AvgBoxes, e.AvgKeptBoxes)
		}
		return out
	}
	out += fmt.Sprintf("| %s |", f.xLabel())
	for _, s := range f.Series {
		out += fmt.Sprintf(" %s |", s.System)
	}
	out += "\n|---|"
	for range f.Series {
		out += "---|"
	}
	out += "\n"
	if len(f.Series) == 0 {
		return out
	}
	for i := range f.Series[0].X {
		out += fmt.Sprintf("| %d |", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				out += fmt.Sprintf(" %d |", s.Y[i])
			}
		}
		out += "\n"
	}
	return out
}
