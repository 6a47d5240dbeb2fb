package obs

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"
)

// latencyBuckets are the histogram upper bounds. Market round-trips live in
// the 1ms–10s range; everything slower lands in +Inf.
var latencyBuckets = []time.Duration{
	time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	(5 * time.Second) / 2,
	5 * time.Second,
	10 * time.Second,
}

// histogram is a fixed-bucket latency histogram. Counts are per-bucket
// (non-cumulative, one overflow bucket at the end); snapshots and the
// Prometheus rendering cumulate.
type histogram struct {
	counts []int64
	count  int64
	sum    time.Duration
}

func (h *histogram) observe(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]int64, len(latencyBuckets)+1)
	}
	i := sort.Search(len(latencyBuckets), func(i int) bool { return d <= latencyBuckets[i] })
	h.counts[i]++
	h.count++
	h.sum += d
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	var cum int64
	for i, le := range latencyBuckets {
		if h.counts != nil {
			cum += h.counts[i]
		}
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: cum})
	}
	return s
}

// Bucket is one cumulative histogram bucket: Count observations ≤ Le.
type Bucket struct {
	Le    time.Duration
	Count int64
}

// HistogramSnapshot is a point-in-time copy of a latency histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets []Bucket
}

// Quantile returns an upper bound on the q-quantile latency (q in [0,1]),
// resolved to bucket boundaries; 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	for _, b := range s.Buckets {
		if b.Count >= rank {
			return b.Le
		}
	}
	// Beyond the last bound: report the mean of the overflow as a stand-in.
	return s.Sum / time.Duration(s.Count)
}

// Snapshot is the metric table: every counter, gauge and histogram the
// registry keeps is one field here, and a point-in-time copy of the registry
// is one value of it. The prom tag names the field's family (without the
// prefix) and its Prometheus type; the help tag is its HELP text.
// WritePrometheus renders the families in field order, so adding a metric is
// adding a field and the Observe method that feeds it.
type Snapshot struct {
	// The cumulative market bill: per query on the buyer side (failed ones
	// included), per served call on the seller side.
	Queries      int64   `prom:"queries_total,counter" help:"Queries executed."`
	QueryErrors  int64   `prom:"query_errors_total,counter" help:"Queries that failed."`
	Calls        int64   `prom:"calls_total,counter" help:"RESTful market calls."`
	Records      int64   `prom:"records_total,counter" help:"Records returned by market calls."`
	RowsExamined int64   `prom:"rows_examined_total,counter" help:"Rows the seller's filter tested to answer billed market calls."`
	Transactions int64   `prom:"transactions_total,counter" help:"Transactions billed (ceil(records/t) per call)."`
	Price        float64 `prom:"price_total,counter" help:"Money billed across all calls."`
	Retries      int64   `prom:"call_retries_total,counter" help:"Extra transport attempts beyond the first."`

	// Semantic-store reuse, lookups and compaction.
	StoreHits             int64 `prom:"store_hits_total,counter" help:"Plan accesses served entirely from the semantic store."`
	StoreHitRows          int64 `prom:"store_hit_rows_total,counter" help:"Rows served from the semantic store instead of bought."`
	StoreLookups          int64 `prom:"store_lookups_total,counter" help:"Indexed semantic-store coverage lookups."`
	StoreLookupMicros     int64 `prom:"store_lookup_micros_total,counter" help:"Cumulative coverage-lookup wall-clock microseconds."`
	StorePrunedBoxes      int64 `prom:"store_pruned_boxes_total,counter" help:"Stored boxes skipped by index pruning before subtraction."`
	StoreFastPathHits     int64 `prom:"store_fastpath_total,counter" help:"Coverage lookups answered by a single containing box."`
	StoreDroppedEntries   int64 `prom:"store_dropped_entries_total,counter" help:"New coverage entries dropped as redundant on Record."`
	StoreCompactedEntries int64 `prom:"store_compacted_entries_total,counter" help:"Stored coverage entries absorbed or merged by compaction."`

	// Failure recovery: replay ledger, circuit breakers, failed spend.
	ReplayedCalls                int64   `prom:"replayed_calls_total,counter" help:"Retried calls served from the replay ledger without re-billing."`
	BreakerOpens                 int64   `prom:"breaker_opens_total,counter" help:"Circuit breakers tripped open."`
	BreakerShortCircuits         int64   `prom:"breaker_short_circuits_total,counter" help:"Calls refused locally while a dataset's breaker was open."`
	BreakerProbes                int64   `prom:"breaker_probes_total,counter" help:"Half-open probe calls let through after a breaker cooldown."`
	FailedQuerySpendTransactions int64   `prom:"failed_query_spend_transactions_total,counter" help:"Transactions billed to queries that ultimately failed."`
	FailedQuerySpendPrice        float64 `prom:"failed_query_spend_price_total,counter" help:"Money billed to queries that ultimately failed."`

	// Durability: WAL appends and recoveries, checkpoints, lost audits.
	WALAppends         int64 `prom:"wal_appends_total,counter" help:"Write-ahead-log appends in durable mode."`
	WALAppendBytes     int64 `prom:"wal_append_bytes_total,counter" help:"Payload bytes appended to the write-ahead log."`
	WALAppendMicros    int64 `prom:"wal_append_micros_total,counter" help:"Cumulative WAL append wall-clock microseconds (including fsyncs)."`
	WALSyncedAppends   int64 `prom:"wal_synced_appends_total,counter" help:"WAL appends fsynced before Record returned."`
	WALReplays         int64 `prom:"wal_replays_total,counter" help:"Durable-store recoveries that replayed the log."`
	WALReplayedRecords int64 `prom:"wal_replayed_records_total,counter" help:"WAL records applied during recovery."`
	WALSkippedRecords  int64 `prom:"wal_skipped_records_total,counter" help:"WAL records skipped as already covered by the loaded snapshot."`
	WALTornTails       int64 `prom:"wal_torn_tails_total,counter" help:"Recoveries that truncated a torn WAL tail."`
	Checkpoints        int64 `prom:"checkpoints_total,counter" help:"Snapshot checkpoints completed."`
	CheckpointFailures int64 `prom:"checkpoint_failures_total,counter" help:"Snapshot checkpoints that failed (log left intact)."`
	CheckpointBytes    int64 `prom:"checkpoint_bytes_total,counter" help:"Bytes written by snapshot checkpoints."`
	CheckpointMicros   int64 `prom:"checkpoint_micros_total,counter" help:"Cumulative checkpoint wall-clock microseconds."`
	AuditDropped       int64 `prom:"audit_dropped_total,counter" help:"Audit records lost to sink write failures."`

	// Planning: plan-cache lookups (an invalidation is also a miss).
	PlanCacheHits          int64 `prom:"plan_cache_hits_total,counter" help:"Plan-template cache lookups served from cache."`
	PlanCacheMisses        int64 `prom:"plan_cache_misses_total,counter" help:"Plan-template cache lookups that missed."`
	PlanCacheInvalidations int64 `prom:"plan_cache_invalidations_total,counter" help:"Cached plan skeletons discarded as stale (a table the plan reads moved its statistics)."`
	PlanCacheEvictions     int64 `prom:"plan_cache_evictions_total,counter" help:"Cached plan skeletons displaced by the LRU capacity."`
	PlansCached            int64 `prom:"plans_cached_total,counter" help:"Queries planned from the plan-template cache."`
	PlansDP                int64 `prom:"plans_dp_total,counter" help:"Queries planned by the full dynamic program."`

	// The global call scheduler.
	SchedSingleflightHits        int64 `prom:"sched_singleflight_hits_total,counter" help:"Calls served by joining an identical in-flight market call."`
	SchedMergedCalls             int64 `prom:"sched_merged_calls_total,counter" help:"Wire calls fused out of several boxes: parked together across queries, or one plan's sibling calls."`
	SchedMergedTransactionsSaved int64 `prom:"sched_merged_transactions_saved_total,counter" help:"Transactions saved by merged calls versus billing the parts."`
	SchedDelayedCalls            int64 `prom:"sched_delayed_calls_total,counter" help:"Fetches parked in the coalesce window to accumulate merge candidates."`

	// The federation layer's routing.
	FederationCalls     int64 `prom:"federation_calls_total,counter" help:"Market calls routed through the federation layer."`
	FederationFailovers int64 `prom:"federation_failovers_total,counter" help:"Endpoint attempts that hard-failed and failed over to the next endpoint."`
	FederationHedges    int64 `prom:"federation_hedged_calls_total,counter" help:"Hedge attempts launched after the primary exceeded its hedge delay."`
	FederationHedgeWins int64 `prom:"federation_hedge_wins_total,counter" help:"Hedges whose secondary endpoint answered first."`
	FederationExhausted int64 `prom:"federation_exhausted_total,counter" help:"Calls that failed on every configured endpoint."`

	// Gauges: instantaneous levels, not cumulative.
	InflightQueries int64 `prom:"inflight_queries,gauge" help:"Queries currently executing."`
	QueueDepth      int64 `prom:"queue_depth,gauge" help:"Requests currently queued for an execution slot."`

	QueryLatency    HistogramSnapshot `prom:"query_duration_seconds,histogram" help:"End-to-end query latency."`
	CallLatency     HistogramSnapshot `prom:"call_duration_seconds,histogram" help:"Market call latency (including retries and paging)."`
	OptimizeLatency HistogramSnapshot `prom:"optimize_duration_seconds,histogram" help:"Optimizer latency per query."`
}

// Metrics accumulates process-wide counters and latency histograms. One
// instance serves a Client (buyer side) or a Market (seller side); unused
// families simply stay zero. Safe for concurrent use; every method is a
// no-op on a nil receiver.
type Metrics struct {
	mu sync.Mutex
	// s holds every counter and gauge; the histograms fill its histogram
	// fields at Snapshot.
	s                                          Snapshot
	queryLatency, callLatency, optimizeLatency histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// update applies f to the table under the registry lock.
func (m *Metrics) update(f func(*Snapshot)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	f(&m.s)
	m.mu.Unlock()
}

// b2i is 1 for true, 0 for false.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ObserveQuery folds one finished query into the registry: its end-to-end
// and optimize latencies plus what it cost at the market.
func (m *Metrics) ObserveQuery(total, optimize time.Duration, calls, records, transactions int64, price float64) {
	m.update(func(s *Snapshot) {
		s.Queries++
		s.Calls += calls
		s.Records += records
		s.Transactions += transactions
		s.Price += price
		m.queryLatency.observe(total)
		m.optimizeLatency.observe(optimize)
	})
}

// ObserveQueryError counts a failed query.
func (m *Metrics) ObserveQueryError() { m.update(func(s *Snapshot) { s.QueryErrors++ }) }

// ObserveStoreServed folds the rows the semantic store served one plan
// access: hit marks an access served entirely from the store, otherwise the
// rows are the owned part of a partially bought access. The engine feeds it
// for every access, traced or not.
func (m *Metrics) ObserveStoreServed(hit bool, rows int64) {
	m.update(func(s *Snapshot) {
		s.StoreHits += b2i(hit)
		s.StoreHitRows += max(rows, 0)
	})
}

// ObserveStoreLookup folds one semantic-store coverage lookup into the
// registry. The store feeds it directly, traced query or not.
func (m *Metrics) ObserveStoreLookup(micros int64, pruned int, fastPath bool) {
	m.update(func(s *Snapshot) {
		s.StoreLookups++
		s.StoreLookupMicros += micros
		s.StorePrunedBoxes += int64(pruned)
		s.StoreFastPathHits += b2i(fastPath)
	})
}

// ObserveStoreCompaction folds one Record's compaction outcome: whether the
// new entry was dropped as redundant, and how many stored entries it removed.
func (m *Metrics) ObserveStoreCompaction(dropped bool, absorbed, merged int) {
	m.update(func(s *Snapshot) {
		s.StoreDroppedEntries += b2i(dropped)
		s.StoreCompactedEntries += int64(absorbed + merged)
	})
}

// ObserveReplayedCall counts a retried call the replay ledger served
// instead of billing it again (seller side).
func (m *Metrics) ObserveReplayedCall() { m.update(func(s *Snapshot) { s.ReplayedCalls++ }) }

// ObserveBreakerOpen counts a circuit breaker tripping open for a dataset.
func (m *Metrics) ObserveBreakerOpen() { m.update(func(s *Snapshot) { s.BreakerOpens++ }) }

// ObserveBreakerShortCircuit counts a market call refused locally because
// its dataset's breaker was open.
func (m *Metrics) ObserveBreakerShortCircuit() {
	m.update(func(s *Snapshot) { s.BreakerShortCircuits++ })
}

// ObserveBreakerProbe counts a half-open probe call let through after a
// breaker's cooldown.
func (m *Metrics) ObserveBreakerProbe() { m.update(func(s *Snapshot) { s.BreakerProbes++ }) }

// ObserveFederationCall counts a market call routed through the federation
// layer (before source selection).
func (m *Metrics) ObserveFederationCall() { m.update(func(s *Snapshot) { s.FederationCalls++ }) }

// ObserveFederationFailover counts one failover: an endpoint's attempt
// hard-failed and the call moved on to the next-cheapest healthy endpoint.
func (m *Metrics) ObserveFederationFailover() {
	m.update(func(s *Snapshot) { s.FederationFailovers++ })
}

// ObserveFederationHedge counts a hedge launched: the primary endpoint was
// slower than its hedge delay, so a second endpoint was raced against it.
func (m *Metrics) ObserveFederationHedge() { m.update(func(s *Snapshot) { s.FederationHedges++ }) }

// ObserveFederationHedgeWin counts a hedge whose secondary endpoint answered
// first (the primary was cancelled as the loser).
func (m *Metrics) ObserveFederationHedgeWin() {
	m.update(func(s *Snapshot) { s.FederationHedgeWins++ })
}

// ObserveFederationExhausted counts calls that failed on every configured
// endpoint (all refused by breakers or all hard-failed).
func (m *Metrics) ObserveFederationExhausted() {
	m.update(func(s *Snapshot) { s.FederationExhausted++ })
}

// AddInflight moves the in-flight-queries gauge by delta: +1 as a query is
// admitted, -1 as it settles.
func (m *Metrics) AddInflight(delta int64) {
	m.update(func(s *Snapshot) { s.InflightQueries += delta })
}

// AddQueueDepth moves the admission-queue-depth gauge by delta: +1 as a
// request starts waiting for an execution slot, -1 as it is admitted or shed.
func (m *Metrics) AddQueueDepth(delta int64) { m.update(func(s *Snapshot) { s.QueueDepth += delta }) }

// ObserveFailedQuerySpend folds the money a FAILED query still spent (its
// salvage: the rows are in the semantic store, so a retry will not re-buy
// them) into the bill ObserveQuery feeds on success, and into the
// failed-spend totals that show how much spend sits behind failures.
func (m *Metrics) ObserveFailedQuerySpend(calls, records, transactions int64, price float64) {
	m.update(func(s *Snapshot) {
		s.Calls += calls
		s.Records += records
		s.Transactions += transactions
		s.Price += price
		s.FailedQuerySpendTransactions += transactions
		s.FailedQuerySpendPrice += price
	})
}

// ObserveWALAppend folds one write-ahead-log append: payload bytes, whether
// it was fsynced before returning, and how long it took (fsync included).
func (m *Metrics) ObserveWALAppend(bytes int, synced bool, micros int64) {
	m.update(func(s *Snapshot) {
		s.WALAppends++
		s.WALAppendBytes += int64(bytes)
		s.WALAppendMicros += micros
		s.WALSyncedAppends += b2i(synced)
	})
}

// ObserveWALReplay folds one recovery replay: records applied, records the
// loaded snapshot already covered, and whether a torn tail was truncated.
func (m *Metrics) ObserveWALReplay(replayed, skipped int, torn bool) {
	m.update(func(s *Snapshot) {
		s.WALReplays++
		s.WALReplayedRecords += int64(replayed)
		s.WALSkippedRecords += int64(skipped)
		s.WALTornTails += b2i(torn)
	})
}

// ObserveCheckpoint folds one snapshot checkpoint into the registry. Failed
// checkpoints (ok=false) count separately; bytes/micros are then zero.
func (m *Metrics) ObserveCheckpoint(bytes, micros int64, ok bool) {
	m.update(func(s *Snapshot) {
		if !ok {
			s.CheckpointFailures++
			return
		}
		s.Checkpoints++
		s.CheckpointBytes += bytes
		s.CheckpointMicros += micros
	})
}

// ObserveAuditDrop counts an audit record the audit sink failed to take.
func (m *Metrics) ObserveAuditDrop() { m.update(func(s *Snapshot) { s.AuditDropped++ }) }

// ObservePlanCacheLookup folds one plan-template cache lookup: whether it
// hit, and whether it discarded a stale entry (an invalidation, also a miss).
func (m *Metrics) ObservePlanCacheLookup(hit, invalidated bool) {
	m.update(func(s *Snapshot) {
		s.PlanCacheHits += b2i(hit)
		s.PlanCacheMisses += b2i(!hit)
		s.PlanCacheInvalidations += b2i(invalidated)
	})
}

// ObservePlanCacheEviction counts a cached plan displaced by capacity.
func (m *Metrics) ObservePlanCacheEviction() { m.update(func(s *Snapshot) { s.PlanCacheEvictions++ }) }

// ObservePlanner counts where one query's plan came from ("cached", or
// anything else, counted as dp).
func (m *Metrics) ObservePlanner(planner string) {
	m.update(func(s *Snapshot) {
		if planner == "cached" {
			s.PlansCached++
		} else {
			s.PlansDP++
		}
	})
}

// ObserveSchedSingleflightHit counts a market call that joined an identical
// (or containing) in-flight call instead of going to the wire.
func (m *Metrics) ObserveSchedSingleflightHit() {
	m.update(func(s *Snapshot) { s.SchedSingleflightHits++ })
}

// ObserveSchedMerge counts one wire call fused out of several boxes and the
// transactions the fusion saved versus billing the parts separately.
func (m *Metrics) ObserveSchedMerge(saved int64) {
	m.update(func(s *Snapshot) {
		s.SchedMergedCalls++
		s.SchedMergedTransactionsSaved += max(saved, 0)
	})
}

// ObserveSchedDelayedCall counts a sub-transaction-size fetch the scheduler
// parked in the coalesce window to accumulate merge candidates.
func (m *Metrics) ObserveSchedDelayedCall() { m.update(func(s *Snapshot) { s.SchedDelayedCalls++ }) }

// ObserveCallLatency folds one buyer-side wire call's duration, retries and
// paging included, into the call latency histogram.
func (m *Metrics) ObserveCallLatency(d time.Duration) {
	m.update(func(*Snapshot) { m.callLatency.observe(d) })
}

// ObserveCallRetries counts the extra transport attempts one buyer-side
// wire call made. The scheduler feeds it for every wire call, traced or not.
func (m *Metrics) ObserveCallRetries(n int) {
	if n == 0 {
		return
	}
	m.update(func(s *Snapshot) { s.Retries += int64(n) })
}

// ObserveCall folds one served market call into the registry — the
// seller-side entry point used by Market.Execute — with the rows its filter
// tested.
func (m *Metrics) ObserveCall(latency time.Duration, records, transactions int64, price float64, examined int64) {
	m.update(func(s *Snapshot) {
		s.Calls++
		s.Records += records
		s.RowsExamined += examined
		s.Transactions += transactions
		s.Price += price
		m.callLatency.observe(latency)
	})
}

// Snapshot returns a consistent copy of the registry.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.s
	s.QueryLatency = m.queryLatency.snapshot()
	s.CallLatency = m.callLatency.snapshot()
	s.OptimizeLatency = m.optimizeLatency.snapshot()
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, one family per Snapshot field in field order. prefix namespaces
// the families ("payless" on the buyer side, "market" on the seller side).
func (m *Metrics) WritePrometheus(w io.Writer, prefix string) {
	s := reflect.ValueOf(m.Snapshot())
	for i := range s.NumField() {
		f := s.Type().Field(i)
		family, kind, _ := strings.Cut(f.Tag.Get("prom"), ",")
		name := prefix + "_" + family
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.Tag.Get("help"), name, kind)
		switch v := s.Field(i).Interface().(type) {
		case int64:
			fmt.Fprintf(w, "%s %d\n", name, v)
		case float64:
			fmt.Fprintf(w, "%s %g\n", name, v)
		case HistogramSnapshot:
			for _, b := range v.Buckets {
				fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b.Le.Seconds(), b.Count)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, v.Count)
			fmt.Fprintf(w, "%s_sum %g\n", name, v.Sum.Seconds())
			fmt.Fprintf(w, "%s_count %d\n", name, v.Count)
		}
	}
}

// WriteCounterHead writes the HELP/TYPE preamble of one counter family in
// the Prometheus text exposition format; its samples follow.
func WriteCounterHead(w io.Writer, prefix, name, help string) {
	fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n", prefix, name, help, prefix, name)
}

// WriteLabeledCounter writes one counter sample carrying a single label
// pair; %q escapes the value exactly as the exposition format requires.
func WriteLabeledCounter(w io.Writer, prefix, name, label, labelValue string, v int64) {
	fmt.Fprintf(w, "%s_%s{%s=%q} %d\n", prefix, name, label, labelValue, v)
}

// Handler serves the registry at GET in Prometheus text format.
func (m *Metrics) Handler(prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.WritePrometheus(w, prefix)
	})
}
