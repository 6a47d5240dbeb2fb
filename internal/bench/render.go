package bench

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// Request selects which figures and datasets Each regenerates.
type Request struct {
	// Figures lists figure names ("10".."15"); empty means all of them.
	Figures []string
	// Datasets lists "real", "tpch", "tpch-skew"; empty means all.
	Datasets []string
	Params   Params
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

// The swept grids of Figs. 11–13, as recorded in EXPERIMENTS.md.
func (r *Request) tValues() []int { return []int{50, 100, 500} }

func (r *Request) qValues(dataset string) []int {
	if dataset == "real" {
		return []int{10, 20, 30}
	}
	return []int{5, 10, 20}
}

func (r *Request) dValues() []float64 { return []float64{0.5, 1, 2} }

// runner regenerates one figure for one dataset; a nil figure skips it.
type runner struct {
	name string
	run  func(req Request, ds string) (*Figure, error)
}

// runners is every figure paylessbench regenerates, in "all" order.
var runners = []runner{
	{"10", func(r Request, ds string) (*Figure, error) { return Fig10(r.Params, ds) }},
	{"11", func(r Request, ds string) (*Figure, error) { return Fig11(r.Params, ds, r.tValues()) }},
	{"12", func(r Request, ds string) (*Figure, error) { return Fig12(r.Params, ds, r.qValues(ds)) }},
	{"13", func(r Request, ds string) (*Figure, error) {
		if ds == "real" {
			return nil, nil // Fig. 13 varies the synthetic data size only
		}
		return Fig13(r.Params, ds, r.dValues())
	}},
	{"14", func(r Request, ds string) (*Figure, error) { return Fig14(r.Params, ds) }},
	{"15", func(r Request, ds string) (*Figure, error) { return Fig15(r.Params, ds) }},
}

// Each regenerates the requested figures in request order and hands each
// to emit with the time it took to regenerate.
func Each(req Request, emit func(fig *Figure, took time.Duration)) error {
	for _, name := range req.figures() {
		i := slices.IndexFunc(runners, func(rn runner) bool { return rn.name == name })
		if i < 0 {
			return fmt.Errorf("unknown figure %q", name)
		}
		for _, ds := range req.datasets() {
			start := time.Now()
			fig, err := runners[i].run(req, ds)
			if err != nil {
				return fmt.Errorf("fig %s (%s): %w", name, ds, err)
			}
			if fig != nil {
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
	out += "| #queries |"
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
