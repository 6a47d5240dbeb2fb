package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number. Samples is how many values the statistic
// is taken over (passes, or request positions for the latency percentiles);
// PerPass and the quartiles let -compare tell a shift from noise.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	PerPass []float64 `json:"per_pass,omitempty"`
}

// overPasses reports the median of one value per pass.
func overPasses(unit string, perPass []float64) metric {
	q1, q3 := quartiles(perPass)
	return metric{Value: median(perPass), Unit: unit, Samples: len(perPass), Q1: q1, Q3: q3, PerPass: perPass}
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Name            string            `json:"name"`
	Why             string            `json:"why"`
	Clients         int               `json:"clients"`
	Passes          int               `json:"passes"`
	RequestsPerPass int               `json:"requests_per_pass"`
	Attempted       int               `json:"attempted"`
	Failed          int               `json:"failed"`
	Errors          []string          `json:"errors,omitempty"`
	MeasuredSeconds float64           `json:"measured_seconds"`
	EndToEnd        map[string]metric `json:"end_to_end"`
	PerLayer        map[string]metric `json:"per_layer,omitempty"`
}

const maxErrorsKept = 10

func (r *workloadResult) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < maxErrorsKept {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// runOptions are the knobs of one workload run.
type runOptions struct {
	seed    int64
	seconds float64 // nominal measured seconds: scales the number of passes
	trace   bool
	smoke   bool
	results string // directory trace-<workload>.json goes to ("" = not written)
}

// env is what the passes, the traced run and the probes of one workload run
// share: where the children come from and where scratch files go.
type env struct {
	sup        *supervisor
	dataset    string
	smoke      bool
	marketURL  string // the untraced market child
	localsPath string
	scratch    string
}

func (e env) spawnDaemon(marketURL, storeDir string, traced bool) (*child, error) {
	return e.sup.spawn("daemon", "/healthz", nil,
		"-market="+marketURL, "-locals="+e.localsPath, "-store-dir="+storeDir, fmt.Sprintf("-traced=%t", traced))
}

func (e env) spawnMarket(traced bool) (*child, error) {
	return e.sup.spawn("market", "/v1/catalog", marketAuth,
		"-dataset="+e.dataset, fmt.Sprintf("-smoke=%t", e.smoke), fmt.Sprintf("-traced=%t", traced))
}

// daemonLauncher returns how a pass gets its fresh daemon child. collect, if
// set, runs against the live daemon just before it is stopped.
func (e env) daemonLauncher(marketURL string, traced bool, collect func(daemonURL string) error) launcher {
	return func(storeDir string) (string, func() error, error) {
		d, err := e.spawnDaemon(marketURL, storeDir, traced)
		if err != nil {
			return "", nil, err
		}
		return d.url, func() error {
			var err error
			if collect != nil {
				err = collect(d.url)
			}
			if serr := e.sup.stop(d); err == nil {
				err = serr
			}
			return err
		}, nil
	}
}

// A run is an amount of work (spec.passes), but a caller waits only so long
// for it, and this host has phases in which everything runs several times
// slower. Past softWallFactor × -seconds of wall a run that has minKept
// passes starts no new one; past hardWallFactor × -seconds one pass is
// enough.
const (
	softWallFactor = 1.25
	hardWallFactor = 3
	minKept        = 3
)

// outOfTime reports whether a run that has so many passes after elapsed
// starts no further one.
func outOfTime(elapsed time.Duration, seconds float64, kept int) bool {
	wall := func(factor float64) time.Duration { return time.Duration(factor * seconds * float64(time.Second)) }
	return elapsed > wall(softWallFactor) && kept >= minKept || elapsed > wall(hardWallFactor) && kept >= 1
}

// marketStarts is how often the market child is started to time its start:
// one start of a few tens of milliseconds is mostly scheduling luck.
const marketStarts = 5

// progress writes one line of the run's timeline to stderr, so that a run
// that was stopped from outside shows where its time went.
func progress(began time.Time, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ledger: %6.1fs %s\n", time.Since(began).Seconds(), fmt.Sprintf(format, args...))
}

// runWorkload measures one workload end to end: market child, then passes
// against fresh daemon children, checking every answer and every bill on
// the way.
func runWorkload(ctx context.Context, sup *supervisor, s spec, opts runOptions) (*workloadResult, error) {
	if opts.smoke {
		s = smokeScale(s)
	}
	began := time.Now()
	ds, err := buildDataset(s.dataset, opts.smoke)
	if err != nil {
		return nil, err
	}
	p := makePlan(s, ds, opts.seed)
	ref, err := newReference(ds)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(sup.dir, s.name)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	localsPath := filepath.Join(scratch, "locals.gob")
	if err := writeLocals(localsPath, ds.locals); err != nil {
		return nil, err
	}

	e := env{sup: sup, dataset: s.dataset, smoke: opts.smoke, localsPath: localsPath, scratch: scratch}
	progress(began, "%s: queries and reference ready", s.name)
	var mkt *child
	var starts []float64
	for i := 0; i < marketStarts; i++ {
		if mkt != nil {
			sup.stop(mkt)
		}
		t0 := time.Now()
		if mkt, err = e.spawnMarket(false); err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	defer sup.stop(mkt)
	// Like every timing, at host speed 1 (passResult.hostSpeed).
	speed, err := calibrate(ctx, mkt.url, 1)
	if err != nil {
		return nil, err
	}
	marketStart := time.Duration(median(starts) * speed * float64(time.Second))
	progress(began, "market up (median start of %d: %.3fs at host speed %.2f)", marketStarts, median(starts), speed)
	e.marketURL = mkt.url
	launch := e.daemonLauncher(mkt.url, false, nil)

	res := &workloadResult{
		Name: s.name, Why: s.why, Clients: s.clients,
		RequestsPerPass: len(p.templates) * s.instances,
	}
	var passes []*passResult
	n := s.passes(opts.seconds)
	for len(passes) < n {
		if outOfTime(time.Since(began), opts.seconds, len(passes)) {
			progress(began, "out of time: %d of %d passes", len(passes), n)
			break
		}
		queries := p.queries(len(passes))
		// A covered workload replays one list: checking it once checks it.
		keepSamples := !p.covered || len(passes) == 0
		pr, err := runPass(ctx, p, queries, ds.cover, mkt.url, launch, scratch, keepSamples)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", s.name, len(passes)+1, err)
		}
		checkPass(res, p, queries, pr, passes, ref)
		res.Attempted += len(queries)
		passes = append(passes, pr)
		res.MeasuredSeconds += pr.wall.Seconds()
		progress(began, "pass %d: %.2fs measured, host speed %.2f, slowest request %.0f ms, %.1f%% stolen",
			len(passes), pr.wall.Seconds(), pr.hostSpeed, percentile(pr.latMs, 1), 100*pr.stealShare())
	}
	res.Passes = len(passes)
	res.EndToEnd = endToEnd(p, passes, marketStart)
	res.PerLayer = scrapeLayers(passes, marketStart)
	res.PerLayer["driver.p90_ms"] = res.EndToEnd["p90_ms"]
	var speeds, rawQPS []float64
	for _, pr := range passes {
		speeds = append(speeds, pr.hostSpeed)
		rawQPS = append(rawQPS, pr.rawQPS())
	}
	res.PerLayer["driver.host_speed"] = overPasses("ratio", speeds)
	res.PerLayer["driver.qps_raw"] = overPasses("1/s", rawQPS)

	if opts.trace {
		if err := traceWorkload(ctx, e, p, ds, passes, opts, res); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", s.name, err)
		}
		progress(began, "traced run and probes done")
	}
	errorRate := metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", Samples: res.Attempted}
	res.EndToEnd["error_rate"], res.PerLayer["driver.error_rate"] = errorRate, errorRate
	return res, nil
}

// checkPass holds one pass against the reference answers, the three bills
// (responses, seller meter, tenant ledgers) and, where passes replay one
// list, the first pass's answers. Every mismatch counts as a failed request.
func checkPass(res *workloadResult, p *plan, queries []string, pr *passResult, earlier []*passResult, ref *reference) {
	n := len(earlier) + 1
	if pr.failed > 0 {
		res.fail(pr.failed, "pass %d: %d requests failed, first at %s", n, pr.failed, pr.firstErr)
	}
	for pos, a := range pr.answers {
		switch {
		case a.rows < 0: // already counted as failed
		case p.covered && a.tx != 0:
			res.fail(1, "pass %d position %d: covered request billed %d transactions", n, pos, a.tx)
		case p.covered && len(earlier) > 0:
			if want := earlier[0].answers[pos]; want.rows != a.rows || want.sum != a.sum {
				res.fail(1, "pass %d position %d: %d rows differ from pass 1's %d rows", n, pos, a.rows, want.rows)
			}
		}
	}
	for pos, rows := range pr.samples {
		want, err := ref.canon(queries[pos])
		if err != nil {
			res.fail(1, "pass %d position %d: %v", n, pos, err)
		} else if canon(rows) != want {
			res.fail(1, "pass %d position %d: rows differ from the Download-All answer: %s", n, pos, queries[pos])
		}
	}
	windowTx := pr.windowTx()
	if got := pr.after.meter.Transactions - pr.before.meter.Transactions; got != windowTx {
		res.fail(1, "pass %d: responses report %d transactions in the window, seller meter moved %d", n, windowTx, got)
	}
	bill := pr.prewarmTx + windowTx
	if got := pr.after.meter.Transactions - pr.meterAtStart.Transactions; got != bill {
		res.fail(1, "pass %d: responses report %d transactions, seller meter moved %d", n, bill, got)
	}
	if got := ledgerSum(pr.after.metrics); got != bill {
		res.fail(1, "pass %d: responses report %d transactions, tenant ledgers sum to %d", n, bill, got)
	}
}

func (pr *passResult) ok() int { return len(pr.latMs) - pr.failed }

// rawQPS is the pass's throughput as the clock saw it, qps the same at host
// speed 1.
func (pr *passResult) rawQPS() float64 { return float64(pr.ok()) / pr.wall.Seconds() }

func (pr *passResult) qps() float64 { return pr.rawQPS() / pr.hostSpeed }

// windowTx is Σ transactions the pass's measured responses reported.
func (pr *passResult) windowTx() int64 {
	var tx int64
	for _, a := range pr.answers {
		tx += a.tx
	}
	return tx
}

// perQuery applies f to every pass and divides by the pass's OK responses.
func perQuery(passes []*passResult, f func(*passResult) float64) []float64 {
	out := make([]float64, len(passes))
	for i, pr := range passes {
		if n := pr.ok(); n > 0 {
			out[i] = f(pr) / float64(n)
		}
	}
	return out
}

// counted reports a count per query: the ratio of the totals over all
// passes. Counts carry no timing noise, so there is nothing for a median to
// reject, and the ratio of totals uses every pass's list.
func counted(unit string, passes []*passResult, f func(*passResult) float64) metric {
	m := overPasses(unit, perQuery(passes, f))
	var num, den float64
	for _, pr := range passes {
		num += f(pr)
		den += float64(pr.ok())
	}
	m.Value = ratio(num, den)
	return m
}

// endToEnd derives the user-visible metrics. Timings are medians over
// passes. Where passes replay one list (covered workloads) a position's
// latency is its median over passes and the percentiles run over positions;
// where every pass has its own list they run over all requests.
func endToEnd(p *plan, passes []*passResult, marketStart time.Duration) map[string]metric {
	var (
		lat           [][]float64
		qps, p50, p90 []float64
		heap, setups  []float64
	)
	for _, pr := range passes {
		scaled := make([]float64, len(pr.latMs))
		for i, ms := range pr.latMs {
			scaled[i] = ms * pr.hostSpeed
		}
		lat = append(lat, scaled)
		qps = append(qps, pr.qps())
		p50 = append(p50, percentile(scaled, 0.5))
		p90 = append(p90, percentile(scaled, 0.9))
		heap = append(heap, float64(pr.liveHeap)/(1<<20))
		setups = append(setups, (pr.daemonStart+pr.prewarm).Seconds()*pr.hostSpeed)
	}
	var pos []float64
	if p.covered {
		pos = positionMedians(lat)
	} else {
		for _, l := range lat {
			pos = append(pos, l...)
		}
	}
	latency := func(perPass []float64, q float64) metric {
		m := overPasses("ms", perPass)
		m.Value, m.Samples = percentile(pos, q), len(pos)
		return m
	}
	setup := overPasses("s", setups)
	setup.Value += marketStart.Seconds()
	return map[string]metric{
		"qps":    overPasses("1/s", qps),
		"p50_ms": latency(p50, 0.5),
		"p90_ms": latency(p90, 0.9),
		// The whole bill, pre-warm included, per measured request: what a
		// covered workload paid to become covered is part of its price.
		"tx_per_query": counted("tx", passes, func(pr *passResult) float64 {
			return float64(pr.prewarmTx + pr.windowTx())
		}),
		"daemon_cpu_ms_per_query": overPasses("ms", perQuery(passes, func(pr *passResult) float64 {
			return float64(pr.after.daemon.CPUMicros-pr.before.daemon.CPUMicros) / 1000 * pr.hostSpeed
		})),
		"daemon_allocs_per_query": counted("1", passes, func(pr *passResult) float64 {
			return float64(pr.after.daemon.Mallocs - pr.before.daemon.Mallocs)
		}),
		"daemon_alloc_kb_per_query": counted("KB", passes, func(pr *passResult) float64 {
			return float64(pr.after.daemon.TotalAlloc-pr.before.daemon.TotalAlloc) / 1024
		}),
		"daemon_live_heap_mb": overPasses("MB", heap),
		"setup_s":             setup,
	}
}
