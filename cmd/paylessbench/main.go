// Command paylessbench regenerates the paper's evaluation figures
// (Figs. 10–15, see DESIGN.md §3 for the experiment index) and prints the
// series as text tables (or markdown with -markdown).
//
// Usage:
//
//	paylessbench                       # every figure at default scale
//	paylessbench -fig 10 -dataset real # one figure, one dataset
//	paylessbench -qreal 200 -qtpch 10  # closer to the paper's scale (slow)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"payless/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 10, 11, 12, 13, 14, 15 or all")
		dataset  = flag.String("dataset", "all", "dataset: real, tpch, tpch-skew or all")
		qReal    = flag.Int("qreal", 40, "query instances per template (real data)")
		qTPCH    = flag.Int("qtpch", 10, "query instances per template (TPC-H)")
		t        = flag.Int("t", 100, "tuples per transaction")
		seed     = flag.Int64("seed", 42, "workload seed")
		sample   = flag.Int("sample", 10, "sample the cumulative series every N queries")
		markdown = flag.Bool("markdown", false, "emit markdown tables instead of text")
	)
	flag.Parse()

	p := bench.DefaultParams()
	p.QReal = *qReal
	p.QTPCH = *qTPCH
	p.T = *t
	p.Seed = *seed
	p.SampleEvery = *sample

	var figures, datasets []string // empty: every figure, every dataset
	if *fig != "all" {
		figures = []string{*fig}
	}
	if *dataset != "all" {
		datasets = []string{*dataset}
	}

	req := bench.Request{Params: p, Figures: figures, Datasets: datasets}
	var err error
	if *markdown {
		err = bench.Each(req, func(f *bench.Figure, _ time.Duration) { fmt.Println(f.Markdown()) })
	} else {
		err = bench.RenderAll(req, os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}
