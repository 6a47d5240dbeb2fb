package main

import (
	"bufio"
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// parseProm reads Prometheus text exposition into name → value; a labelled
// sample keeps its label set in the name, as written.
func parseProm(body []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrapeLayers derives the per-layer counts and busy times from the
// daemon's own /metrics and the seller's meter, read around the untraced
// measured windows. Everything is a total over all windows divided by the
// total it is relative to, so with one client every count repeats exactly.
func scrapeLayers(passes []*passResult, marketStart time.Duration) map[string]metric {
	// d sums a daemon counter's movement over all measured windows.
	d := func(name string) float64 {
		var sum float64
		for _, pr := range passes {
			sum += pr.after.metrics["payless_"+name] - pr.before.metrics["payless_"+name]
		}
		return sum
	}
	var (
		queries, marketCPU, marketCalls, gcCycles, shed, ledgerGap, respBytes float64
		stolen, wall                                                          float64
		rssPeak                                                               int64
		daemonStarts, prewarms                                                []float64
	)
	for _, pr := range passes {
		queries += float64(pr.ok())
		marketCPU += float64(pr.after.market.CPUMicros - pr.before.market.CPUMicros)
		marketCalls += float64(pr.after.meter.Calls - pr.before.meter.Calls)
		gcCycles += float64(pr.after.daemon.NumGC - pr.before.daemon.NumGC)
		respBytes += float64(pr.respBytes)
		stolen += pr.stolen.Seconds()
		wall += pr.wall.Seconds()
		for name, v := range pr.after.metrics {
			if strings.HasPrefix(name, "paylessd_shed_total{") {
				shed += v
			}
		}
		ledgerGap += float64(ledgerSum(pr.after.metrics) - (pr.after.meter.Transactions - pr.meterAtStart.Transactions))
		if pr.after.daemon.PeakRSSKB > rssPeak {
			rssPeak = pr.after.daemon.PeakRSSKB
		}
		daemonStarts = append(daemonStarts, pr.daemonStart.Seconds()*pr.hostSpeed)
		prewarms = append(prewarms, pr.prewarm.Seconds()*pr.hostSpeed)
	}
	n := float64(len(passes))
	calls := d("calls_total")
	lookups := d("store_lookups_total")
	hits, misses := d("plan_cache_hits_total"), d("plan_cache_misses_total")
	appends := d("wal_appends_total")
	m := func(v float64, unit string) metric { return metric{Value: v, Unit: unit} }
	return map[string]metric{
		"core.plan_cache_hit_ratio":               m(ratio(hits, hits+misses), "ratio"),
		"core.plans_dp_per_query":                 m(ratio(d("plans_dp_total"), queries), "1"),
		"core.plans_greedy_per_query":             m(ratio(d("plans_greedy_total"), queries), "1"),
		"core.plan_cache_invalidations_per_query": m(ratio(d("plan_cache_invalidations_total"), queries), "1"),
		"core.optimize_us_per_query":              m(ratio(d("optimize_duration_seconds_sum")*1e6, queries), "us"),
		"semstore.lookups_per_query":              m(ratio(lookups, queries), "1"),
		"semstore.lookup_us_per_query":            m(ratio(d("store_lookup_micros_total"), queries), "us"),
		"semstore.fast_path_ratio":                m(ratio(d("store_fastpath_total"), lookups), "ratio"),
		"semstore.compacted_per_call":             m(ratio(d("store_compacted_entries_total"), calls), "1"),
		"sched.delayed_calls_per_query":           m(ratio(d("sched_delayed_calls_total"), queries), "1"),
		"sched.singleflight_hits":                 m(d("sched_singleflight_hits_total")/n, "count"),
		"sched.merged_calls":                      m(d("sched_merged_calls_total")/n, "count"),
		"connector.calls_per_query":               m(ratio(calls, queries), "1"),
		"connector.records_per_query":             m(ratio(d("records_total"), queries), "1"),
		"connector.retries_per_query":             m(ratio(d("call_retries_total"), queries), "1"),
		"wal.appends_per_query":                   m(ratio(appends, queries), "1"),
		"wal.fsyncs_per_query":                    m(ratio(d("wal_synced_appends_total"), queries), "1"),
		"wal.bytes_per_query":                     m(ratio(d("wal_append_bytes_total"), queries), "B"),
		"wal.append_us_per_append":                m(ratio(d("wal_append_micros_total"), appends), "us"),
		"wal.checkpoints":                         m(d("checkpoints_total")/n, "count"),
		"market.cpu_ms_per_call":                  m(ratio(marketCPU/1000, marketCalls), "ms"),
		"tenant.ledger_minus_meter":               m(ledgerGap, "tx"),
		"daemon.shed_total":                       m(shed, "count"),
		"daemon.rss_peak_mb":                      m(float64(rssPeak)/1024, "MB"),
		"daemon.gc_cycles_per_kquery":             m(ratio(gcCycles*1000, queries), "1"),
		"daemon.resp_kb_per_query":                m(ratio(respBytes/1024, queries), "KB"),
		"driver.steal_share":                      m(ratio(stolen, wall*float64(runtime.NumCPU())), "ratio"),
		"setup.market_start_s":                    m(marketStart.Seconds(), "s"),
		"setup.daemon_start_s":                    m(median(daemonStarts), "s"),
		"setup.prewarm_s":                         m(median(prewarms), "s"),
	}
}
