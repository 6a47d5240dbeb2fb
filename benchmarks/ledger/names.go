package main

// endToEndDef declares one end-to-end metric: what a user of the daemon
// sees. bound is how far it may worsen, as a share of the base, before it
// counts as a regression: BENCHMARK.json carries the same number. The
// timing bounds are wide because this sandbox is (README, "Noise"). exact
// metrics may not move at all between two runs of one seed, which is what
// -compare holds them to.
type endToEndDef struct {
	name   string
	unit   string
	better string // lower | higher
	bound  float64
	exact  bool
	// ungated metrics are in result files and judged by -compare but are not
	// in BENCHMARK.json's end_to_end list; its per_layer list has them as
	// driver.<name>.
	ungated bool
}

// endToEndDefs is the report order. BENCHMARK.json lists the same metrics
// minus two. error_rate: its end_to_end metrics must never be 0, so there
// the result object's failed/attempted carry the error rate instead. p90_ms:
// a slow phase of this host moves the tail more than anything else (+27 to
// +30 % on three workloads against +18 to +24 % on p50_ms), which put its
// ten-seed spread at 21-23 % of a 25 % bound that cannot be widened; a gate
// that noise alone trips is no gate (README, "Noise").
var endToEndDefs = []endToEndDef{
	{name: "qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "p90_ms", unit: "ms", better: "lower", bound: 0.25, ungated: true},
	{name: "tx_per_query", unit: "tx", better: "lower", bound: 0.06, exact: true},
	{name: "error_rate", unit: "ratio", better: "lower", exact: true, ungated: true},
	{name: "daemon_cpu_ms_per_query", unit: "ms", better: "lower", bound: 0.25},
	{name: "daemon_allocs_per_query", unit: "1", better: "lower", bound: 0.09},
	{name: "daemon_alloc_kb_per_query", unit: "KB", better: "lower", bound: 0.09},
	{name: "daemon_live_heap_mb", unit: "MB", better: "lower", bound: 0.09},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// gatedEndToEnd is BENCHMARK.json's end_to_end list, in order.
func gatedEndToEnd() []string {
	var names []string
	for _, d := range endToEndDefs {
		if !d.ungated {
			names = append(names, d.name)
		}
	}
	return names
}

// perLayerNames is BENCHMARK.json's per_layer list: what the scrapes around
// the untraced windows give (scrapeLayers) and what the traced run adds
// (traceWorkload). None is a gate; README.md maps each to the end-to-end
// metric and workload it should move.
var perLayerNames = []string{
	// From /metrics, /v1/meter and /bench/stats around the untraced windows.
	"core.plan_cache_hit_ratio", "core.plans_dp_per_query", "core.plans_greedy_per_query",
	"core.plan_cache_invalidations_per_query", "core.optimize_us_per_query",
	"semstore.lookups_per_query", "semstore.lookup_us_per_query", "semstore.fast_path_ratio",
	"semstore.compacted_per_call",
	"sched.delayed_calls_per_query", "sched.singleflight_hits", "sched.merged_calls",
	"connector.calls_per_query", "connector.records_per_query", "connector.retries_per_query",
	"wal.appends_per_query", "wal.fsyncs_per_query", "wal.bytes_per_query",
	"wal.append_us_per_append", "wal.checkpoints",
	"market.cpu_ms_per_call", "tenant.ledger_minus_meter",
	"daemon.shed_total", "daemon.rss_peak_mb", "daemon.gc_cycles_per_kquery", "daemon.resp_kb_per_query",
	"driver.error_rate", "driver.p90_ms", "driver.host_speed", "driver.qps_raw",
	"driver.steal_share",
	"setup.market_start_s", "setup.daemon_start_s", "setup.prewarm_s",
	// From the traced run.
	"daemon.request_us", "daemon.admit_us", "daemon.respond_us",
	"tenant.reserve_us", "tenant.settle_us", "client.compile_us", "client.execute_us",
	"sqlparse.parse_us", "core.normalize_us", "core.bind_us", "core.plan_us",
	"connector.wire_us_per_query", "connector.us_per_call", "market.serve_us_per_call",
	"connector.overhead_us_per_call", "engine.local_us", "http.client_overhead_us",
	"trace.coverage", "trace.overhead_ratio",
	"storage.hashjoin_us", "storage.aggregate_us", "wal.append_sync_us",
	"probe.whw_q5_covered_ms", "probe.whw_q5_allocs",
	"probe.tpch_t2_covered_ms", "probe.tpch_t2_cold_max_ms", "probe.tpch_t2_cold_rss_mb",
}
