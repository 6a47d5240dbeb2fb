package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"payless/internal/catalog"
	"payless/internal/core"
	"payless/internal/sqlparse"
	"payless/internal/storage"
	"payless/internal/wal"
	"payless/internal/workload"
)

// traceRequestsKept bounds the spans written to a trace file to those of the
// first requests of the pass; the per-layer aggregates cover every request.
const traceRequestsKept = 100

// traceFile is benchmarks/results/trace-<workload>.json.
type traceFile struct {
	Workload     string                `json:"workload"`
	Seed         int64                 `json:"seed"`
	Requests     int                   `json:"requests"`
	SpansTotal   int                   `json:"spans_total"`
	SpansWritten int                   `json:"spans_written"`
	Note         string                `json:"note"`
	Layers       map[string]*layerTime `json:"layers"`
	OrphanCalls  int                   `json:"orphan_calls"`
	Spans        []span                `json:"spans"`
}

// traceWorkload is the separate traced run: the first pass again, against a
// market and a daemon started with -traced, whose wrappers at the public
// seams record spans in memory until the driver collects them. It adds the
// trace-derived per-layer metrics, the direct-call microcosts and the probes
// to res.PerLayer; end-to-end metrics never come from here.
func traceWorkload(ctx context.Context, e env, p *plan, ds *dataset, passes []*passResult, opts runOptions, res *workloadResult) error {
	mkt, err := e.spawnMarket(true)
	if err != nil {
		return err
	}
	defer e.sup.stop(mkt)
	var dump traceDump
	launch := e.daemonLauncher(mkt.url, true, func(daemonURL string) error {
		return getJSON(daemonURL+"/bench/spans", nil, &dump)
	})
	// Same positions as the first untraced pass, so for a covered workload
	// the rows must equal the untraced run's; in any case the bills must add up.
	queries := p.queries(0)
	pr, err := runPass(ctx, p, queries, ds.cover, mkt.url, launch, e.scratch, false)
	if err != nil {
		return err
	}
	res.Attempted += len(queries)
	checkPass(res, p, queries, pr, passes, nil)
	var served traceDump
	if err := getJSON(mkt.url+"/bench/spans", nil, &served); err != nil {
		return err
	}
	dump.Serves = served.Serves

	skip := 0
	if p.covered {
		skip = len(ds.cover)
	}
	spans := spansOf(dump, skip)
	layers := selfTimes(spans)
	n := float64(pr.ok())
	perReq := func(name string) float64 {
		if lt := layers[name]; lt != nil {
			return lt.TotalUs / n
		}
		return 0
	}
	perCall := func(name string) float64 {
		if lt, c := layers[name], layers[spanCall]; lt != nil && c != nil {
			return lt.TotalUs / float64(c.Count)
		}
		return 0
	}
	// Wire time per request is the union of its call intervals: the engine
	// fetches a plan step's boxes in parallel.
	var wireNs, clientMs float64
	byReq := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Name == spanCall {
			byReq[s.Req] = append(byReq[s.Req], [2]int64{s.Start, s.End})
		}
	}
	for _, ivs := range byReq {
		wireNs += float64(union(ivs))
	}
	for _, ms := range pr.latMs {
		clientMs += ms
	}
	requestUs := perReq(spanRequest)
	walUs := (pr.after.metrics["payless_wal_append_micros_total"] - pr.before.metrics["payless_wal_append_micros_total"]) / n
	var untracedQPS []float64
	for _, u := range passes {
		untracedQPS = append(untracedQPS, u.qps())
	}

	direct, err := directCosts(queries, ds)
	if err != nil {
		return err
	}
	us := func(v float64) metric { return metric{Value: v, Unit: "us"} }
	add := map[string]metric{
		"daemon.request_us":              us(requestUs),
		"daemon.admit_us":                us(perReq(spanAdmit)),
		"daemon.respond_us":              us(perReq(spanRespond)),
		"tenant.reserve_us":              us(perReq(spanReserve)),
		"tenant.settle_us":               us(perReq(spanSettle)),
		"client.compile_us":              us(perReq(spanCompile)),
		"client.execute_us":              us(perReq(spanExecute)),
		"sqlparse.parse_us":              us(direct.parse),
		"core.normalize_us":              us(direct.normalize),
		"core.bind_us":                   us(direct.bind),
		"core.plan_us":                   us(perReq(spanCompile) - direct.parse - direct.normalize - direct.bind),
		"connector.wire_us_per_query":    us(wireNs / 1e3 / n),
		"connector.us_per_call":          us(perCall(spanCall)),
		"market.serve_us_per_call":       us(perCall(spanServe)),
		"connector.overhead_us_per_call": us(perCall(spanCall) - perCall(spanServe)),
		"engine.local_us":                us(perReq(spanExecute) - wireNs/1e3/n - walUs),
		"http.client_overhead_us":        us(clientMs*1e3/float64(len(pr.latMs)) - requestUs),
		"trace.coverage":                 {Value: 1 - ratio(layers[spanRequest].SelfUs, layers[spanRequest].TotalUs), Unit: "ratio"},
		"trace.overhead_ratio":           {Value: ratio(pr.qps(), median(untracedQPS)), Unit: "ratio"},
	}
	if err := microCosts(p, ds, e, add); err != nil {
		return err
	}
	if err := probes(ctx, e, p, ds, opts, add); err != nil {
		return err
	}
	for name, m := range add {
		res.PerLayer[name] = m
	}

	if opts.results == "" {
		return nil
	}
	tf := traceFile{
		Workload: p.name, Seed: opts.seed, Requests: pr.ok(), SpansTotal: len(spans),
		Note:   fmt.Sprintf("layers aggregate every request of the traced pass; spans lists those of the first %d requests", traceRequestsKept),
		Layers: layers, OrphanCalls: len(dump.Orphans),
	}
	for _, s := range spans {
		if s.Req > traceRequestsKept {
			break
		}
		tf.Spans = append(tf.Spans, s)
	}
	tf.SpansWritten = len(tf.Spans)
	return writeJSON(filepath.Join(opts.results, "trace-"+p.name+".json"), tf)
}

type directTimes struct{ parse, normalize, bind float64 }

// directCosts times the three front-end steps a plan-cache hit still pays,
// by calling them directly on the workload's SQL: the mean over the distinct
// queries of each step's fastest of five runs, in microseconds.
func directCosts(queries []string, ds *dataset) (directTimes, error) {
	cat := catalog.New()
	for _, lt := range ds.tables {
		if err := cat.Register(lt.Meta); err != nil {
			return directTimes{}, err
		}
	}
	const reps = 5
	fastest := func(f func()) float64 {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			t := time.Now()
			f()
			if d := time.Since(t); d < best {
				best = d
			}
		}
		return float64(best) / 1e3
	}
	var out directTimes
	for _, sql := range queries {
		parsed, err := sqlparse.Parse(sql)
		if err != nil {
			return directTimes{}, err
		}
		if _, err := core.Bind(parsed, cat); err != nil {
			return directTimes{}, err
		}
		out.parse += fastest(func() { sqlparse.Parse(sql) })
		out.normalize += fastest(func() { core.Normalize(parsed) })
		out.bind += fastest(func() { core.Bind(parsed, cat) })
	}
	n := float64(len(queries))
	out.parse, out.normalize, out.bind = out.parse/n, out.normalize/n, out.bind/n
	return out, nil
}

// microCosts times three inner operations by calling them directly: the
// Orders ⋈ Lineitem hash join and a grouped aggregate over Lineitem at SF 1
// (TPC-H workloads), and one fsynced WAL append (the durable workload).
// Workloads that do not use an operation report 0 for it.
func microCosts(p *plan, ds *dataset, e env, add map[string]metric) error {
	add["storage.hashjoin_us"] = metric{Unit: "us"}
	add["storage.aggregate_us"] = metric{Unit: "us"}
	add["wal.append_sync_us"] = metric{Unit: "us"}
	medianOf := func(reps int, f func()) float64 {
		var xs []float64
		for i := 0; i < reps; i++ {
			t := time.Now()
			f()
			xs = append(xs, float64(time.Since(t))/1e3)
		}
		return median(xs)
	}
	if p.dataset == "tpch" {
		rel := func(name string) storage.Relation {
			for _, lt := range ds.tables {
				if lt.Meta.Name == name {
					return storage.Relation{Schema: lt.Meta.Schema, Rows: lt.Rows}
				}
			}
			return storage.Relation{}
		}
		orders, lineitem := rel("Orders"), rel("Lineitem")
		add["storage.hashjoin_us"] = metric{Unit: "us", Value: medianOf(5, func() {
			storage.HashJoin(orders, lineitem, []int{0}, []int{0})
		})}
		// SuppKey is column 2, ExtendedPrice column 6.
		add["storage.aggregate_us"] = metric{Unit: "us", Value: medianOf(5, func() {
			storage.Aggregate(lineitem, []int{2}, []storage.AggSpec{{Func: storage.Count, Col: -1}, {Func: storage.Sum, Col: 6}})
		})}
	}
	if p.durable {
		path := filepath.Join(e.scratch, "probe.wal")
		w, err := wal.NewWriter(wal.OS, path, 0, wal.SyncPerCall, 0)
		if err != nil {
			return err
		}
		payload := make([]byte, 1024)
		v := medianOf(50, func() {
			if _, aerr := w.Append(payload); err == nil {
				err = aerr
			}
		})
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		os.Remove(path)
		if err != nil {
			return err
		}
		add["wal.append_sync_us"] = metric{Value: v, Unit: "us"}
	}
	return nil
}

// probeQuery times one query against a probe daemon.
func probeQuery(ctx context.Context, url string, sql string) (ms float64, tx int64, err error) {
	t := time.Now()
	out, err := post(ctx, url+"/v1/query", tenantKeys[0], sqlBody(sql))
	ms = float64(time.Since(t)) / float64(time.Millisecond)
	if err != nil {
		return ms, 0, err
	}
	var qr queryResponse
	if err := json.Unmarshal(out, &qr); err != nil {
		return ms, 0, err
	}
	return ms, qr.Transactions, nil
}

// probeColdCap is how long a cold T2 may run. Most instances take 0.2-0.4 s;
// one that lands on a cross product takes 12 s and gigabytes here (seed 6)
// and, on another seed or a busy host, more than a caller waits for a run.
// Such a query is abandoned and reported as the cap.
const probeColdCap = 5 * time.Second

// probes measures, once and ungated, the two templates kept out of the
// mixes because one request of theirs costs 100× a sibling's: WHW Q5
// (covered) and TPC-H T2 (cold and covered). Each probe gets its own daemon
// child so its allocations and peak RSS are its own.
func probes(ctx context.Context, e env, p *plan, ds *dataset, opts runOptions, add map[string]metric) error {
	for _, name := range []string{"probe.whw_q5_covered_ms", "probe.tpch_t2_covered_ms", "probe.tpch_t2_cold_max_ms"} {
		add[name] = metric{Unit: "ms"}
	}
	add["probe.whw_q5_allocs"] = metric{Unit: "1"}
	add["probe.tpch_t2_cold_rss_mb"] = metric{Unit: "MB"}

	template, instances := 4, 5 // WHW Q5
	if p.dataset == "tpch" {
		template, instances = 1, 2 // TPC-H T2
	}
	if opts.smoke {
		instances = 1
	}
	sqls := workload.Mix(ds.templates[template:template+1], instances, -opts.seed)
	if p.dataset == "tpch" {
		if err := probeCold(ctx, e, sqls, add); err != nil {
			return err
		}
	}
	// Everything is bought first, as in the covered workloads, so the covered
	// timings bill nothing.
	d, err := e.spawnDaemon(e.marketURL, "", false)
	if err != nil {
		return err
	}
	defer e.sup.stop(d)
	for _, sql := range ds.cover {
		if _, _, err := probeQuery(ctx, d.url, sql); err != nil {
			return fmt.Errorf("probe pre-warm %s: %w", sql, err)
		}
	}
	var before, after procStats
	if err := getJSON(d.url+"/bench/stats", nil, &before); err != nil {
		return err
	}
	var warm []float64
	for _, sql := range sqls {
		ms, tx, err := probeQuery(ctx, d.url, sql)
		if err != nil {
			return fmt.Errorf("probe (covered) %s: %w", sql, err)
		}
		if tx != 0 {
			return fmt.Errorf("probe (covered) billed %d transactions: %s", tx, sql)
		}
		warm = append(warm, ms)
	}
	if err := getJSON(d.url+"/bench/stats", nil, &after); err != nil {
		return err
	}
	if p.dataset == "tpch" {
		add["probe.tpch_t2_covered_ms"] = metric{Value: median(warm), Unit: "ms", Samples: len(warm)}
	} else {
		add["probe.whw_q5_covered_ms"] = metric{Value: median(warm), Unit: "ms", Samples: len(warm)}
		add["probe.whw_q5_allocs"] = metric{Value: float64(after.Mallocs-before.Mallocs) / float64(len(warm)), Unit: "1", Samples: len(warm)}
	}
	return nil
}

// probeCold times T2 from an empty store. The daemon's peak RSS is read
// from /proc by the driver: a daemon deep in a cross product may not answer.
func probeCold(ctx context.Context, e env, sqls []string, add map[string]metric) error {
	d, err := e.spawnDaemon(e.marketURL, "", false)
	if err != nil {
		return err
	}
	var cold []float64
	for _, sql := range sqls {
		qctx, cancel := context.WithTimeout(ctx, probeColdCap)
		ms, _, err := probeQuery(qctx, d.url, sql)
		cancel()
		cold = append(cold, ms)
		if errors.Is(err, context.DeadlineExceeded) {
			break
		}
		if err != nil {
			e.sup.kill(d)
			return fmt.Errorf("probe (cold) %s: %w", sql, err)
		}
	}
	rss := peakRSSKB(strconv.Itoa(d.cmd.Process.Pid))
	e.sup.kill(d) // nothing to save, and a drain would wait for an abandoned query
	add["probe.tpch_t2_cold_max_ms"] = metric{Value: percentile(cold, 1), Unit: "ms", Samples: len(cold)}
	add["probe.tpch_t2_cold_rss_mb"] = metric{Value: float64(rss) / 1024, Unit: "MB"}
	return nil
}
