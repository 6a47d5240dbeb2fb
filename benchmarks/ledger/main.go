// Command ledger is the repository's performance ledger: four replay
// workloads driven over HTTP against a real buyer daemon and a real market,
// each in its own OS process, with every answer and every bill checked.
//
//	ledger                                   every workload, metrics table on stdout
//	ledger -trace 1 -out BENCH.json          … plus the traced per-layer run, saved
//	ledger -workload whw_buy -seed 7 -seconds 20 -trace 0
//	                                         one workload; the last stdout line is
//	                                         the result object BENCHMARK.json describes
//	ledger -smoke                            seconds-long functional pass, no timing value
//	ledger -compare A.json B.json            regression verdict per workload × metric
//
// See ../README.md for why each workload and metric exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// report is the result file: BENCH_0.json and its successors.
type report struct {
	Schema    int               `json:"schema"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	Traced    bool              `json:"traced"`
	NProc     int               `json:"nproc"`
	GoVersion string            `json:"go_version"`
	StoreFS   string            `json:"store_fs"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		role     = fs.String("role", "", "internal: run as a child role (market | daemon)")
		dsName   = fs.String("dataset", "whw", "role market: dataset to host (whw | tpch)")
		mktURL   = fs.String("market", "", "role daemon: market base URL")
		locals   = fs.String("locals", "", "role daemon: gob file of local tables to load")
		storeDir = fs.String("store-dir", "", "role daemon: durable store directory (empty = in-memory)")
		traced   = fs.Bool("traced", false, "role: record spans at the public seams and serve them at /bench/spans")

		workload = fs.String("workload", "", "run one workload and end stdout with its result object (default: all)")
		seed     = fs.Int64("seed", 42, "seed the query instances are drawn from")
		seconds  = fs.Float64("seconds", 20, "nominal measured seconds per workload: scales the number of passes")
		trace    = fs.Int("trace", 0, "1 adds the traced per-layer run and the probes")
		smoke    = fs.Bool("smoke", false, "one short pass per workload over a small market: checks only, timings meaningless")
		out      = fs.String("out", "", "write the full result JSON here")
		results  = fs.String("results", filepath.Join("benchmarks", "results"), "directory for trace-<workload>.json")
		workdir  = fs.String("workdir", filepath.Join(".bench_build", "ledger"), "scratch root (stores, pid file)")
		compare  = fs.Bool("compare", false, "compare two result files: ledger -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *role != "":
		return runRole(stderr, *role, *dsName, *smoke, *traced, *mktURL, *locals, *storeDir)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: ledger -compare A.json B.json")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}

	todo := specs
	if *workload != "" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "ledger: unknown workload %q\n", *workload)
			return 2
		}
		todo = []spec{s}
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	sup, err := newSupervisor(*workdir)
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 1
	}
	defer sup.close()

	rep := &report{
		Schema: 1, Seed: *seed, Seconds: *seconds, Smoke: *smoke, Traced: *trace == 1,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), StoreFS: fsType(sup.dir),
	}
	opts := runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, results: *results}
	for _, s := range todo {
		res, err := runWorkload(ctx, sup, s, opts)
		if err != nil {
			fmt.Fprintln(stderr, "ledger:", err)
			if ctx.Err() != nil {
				return 130
			}
			return 1
		}
		rep.Workloads = append(rep.Workloads, res)
		printWorkload(stdout, res)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "ledger:", err)
			return 1
		}
	}
	if *workload != "" {
		printContractLine(stdout, rep.Workloads[0], *trace == 1)
	}
	if !rep.correct() {
		fmt.Fprintln(stderr, "ledger: FAILED: wrong answers or billing mismatches, see the ERROR lines")
		return 1
	}
	return 0
}

// runRole is a child process: serve until SIGTERM, or until stdin reaches
// EOF because the driver is gone.
func runRole(stderr io.Writer, role, dsName string, smoke, traced bool, marketURL, localsPath, storeDir string) int {
	var svc *service
	var err error
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	switch role {
	case "market":
		var ds *dataset
		if ds, err = buildDataset(dsName, smoke); err == nil {
			svc, err = startMarket(ds, rec)
		}
	case "daemon":
		var locals []localTable
		if locals, err = readLocals(localsPath); err == nil {
			svc, err = startDaemon(marketURL, locals, storeDir, rec)
		}
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ledger %s: %v\n", role, err)
		return 1
	}
	fmt.Println(readyPrefix + svc.url)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	orphaned := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(orphaned)
	}()
	select {
	case <-sigs:
	case <-orphaned:
	}
	if err := svc.stop(); err != nil {
		fmt.Fprintf(stderr, "ledger %s: stop: %v\n", role, err)
		return 1
	}
	return 0
}

// fsType names the filesystem the durable store lives on (device flush time
// is the one cost here the program does not control).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printWorkload prints every metric by name with its unit and sample count.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d passes x %d requests, %d clients, %.1f s measured, %d/%d failed\n",
		r.Name, r.Passes, r.RequestsPerPass, r.Clients, r.MeasuredSeconds, r.Failed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   ERROR %s\n", e)
	}
	for _, d := range endToEndDefs {
		m := r.EndToEnd[d.name]
		fmt.Fprintf(w, "   %-28s %14.6g %-6s n=%-6d pass quartiles [%.6g, %.6g]\n", d.name, m.Value, m.Unit, m.Samples, m.Q1, m.Q3)
	}
	for _, name := range perLayerNames {
		if m, ok := r.PerLayer[name]; ok { // the trace-derived ones only after -trace 1
			fmt.Fprintf(w, "   %-42s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
}

// contractValue is one metric in the result object's "metrics".
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine ends stdout with the one JSON object the acceptance
// driver reads: the gated end-to-end metrics, or with -trace 1 the
// per-layer ones, exactly as BENCHMARK.json names them.
func printContractLine(w io.Writer, r *workloadResult, traced bool) {
	names, from := gatedEndToEnd(), r.EndToEnd
	if traced {
		names, from = perLayerNames, r.PerLayer
	}
	metrics := make(map[string]contractValue, len(names))
	for _, n := range names {
		metrics[n] = contractValue{from[n].Value, from[n].Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}
