package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
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

// Metrics accumulates process-wide counters and latency histograms. One
// instance serves a Client (buyer side) or a Market (seller side); unused
// families simply stay zero. Safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	queries     int64
	queryErrors int64

	calls        int64
	records      int64
	transactions int64
	price        float64
	retries      int64

	storeHits    int64
	storeHitRows int64

	storeLookups      int64
	storeLookupMicros int64
	storePrunedBoxes  int64
	storeFastPath     int64
	storeDropped      int64
	storeCompacted    int64

	replayedCalls int64

	breakerOpens         int64
	breakerShortCircuits int64
	breakerProbes        int64

	failedQuerySpendTransactions int64
	failedQuerySpendPrice        float64

	walAppends         int64
	walAppendBytes     int64
	walAppendMicros    int64
	walSyncedAppends   int64
	walReplays         int64
	walReplayedRecords int64
	walSkippedRecords  int64
	walTornTails       int64

	checkpoints        int64
	checkpointFailures int64
	checkpointBytes    int64
	checkpointMicros   int64

	auditDropped int64

	planCacheHits          int64
	planCacheMisses        int64
	planCacheInvalidations int64
	planCacheEvictions     int64
	plansCached            int64
	plansGreedy            int64
	plansDP                int64

	schedSingleflightHits        int64
	schedMergedCalls             int64
	schedMergedTransactionsSaved int64
	schedDelayedCalls            int64

	federationCalls     int64
	federationFailovers int64
	federationHedges    int64
	federationHedgeWins int64
	federationExhausted int64

	// Gauges (instantaneous levels, not cumulative): queries currently
	// executing and requests currently parked in an admission queue.
	inflight   int64
	queueDepth int64

	queryLatency    histogram
	callLatency     histogram
	optimizeLatency histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// ObserveQuery folds one finished query into the registry: its end-to-end
// and optimize latencies plus what it cost at the market.
func (m *Metrics) ObserveQuery(total, optimize time.Duration, calls, records, transactions int64, price float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries++
	m.calls += calls
	m.records += records
	m.transactions += transactions
	m.price += price
	m.queryLatency.observe(total)
	m.optimizeLatency.observe(optimize)
}

// ObserveQueryError counts a failed query.
func (m *Metrics) ObserveQueryError() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queryErrors++
}

// ObserveTrace folds a finished trace's per-call detail into the registry:
// retries and semantic-store reuse. Call/record/transaction totals are NOT
// added here — ObserveQuery already counted them from the query report —
// and neither are call latencies, which ObserveCallLatency takes from every
// wire call traced or not, so observing both for the same query never
// double-counts.
func (m *Metrics) ObserveTrace(t *Trace) {
	if m == nil || t == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range t.Calls {
		m.retries += int64(c.Retries)
	}
	m.storeHits += int64(t.StoreHits)
	m.storeHitRows += t.StoreHitRows
}

// ObserveStoreLookup folds one semantic-store coverage lookup into the
// registry. Fed directly by the store (not via traces), so it counts every
// lookup whether or not the query was traced.
func (m *Metrics) ObserveStoreLookup(micros int64, pruned int, fastPath bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.storeLookups++
	m.storeLookupMicros += micros
	m.storePrunedBoxes += int64(pruned)
	if fastPath {
		m.storeFastPath++
	}
}

// ObserveStoreCompaction folds one Record's compaction outcome into the
// registry: whether the new entry was dropped as redundant, and how many
// stored entries it absorbed or merged away.
func (m *Metrics) ObserveStoreCompaction(dropped bool, absorbed, merged int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if dropped {
		m.storeDropped++
	}
	m.storeCompacted += int64(absorbed + merged)
}

// ObserveReplayedCall counts a call served from the replay ledger instead
// of being billed again — a retry whose first execution had already been
// charged (seller side).
func (m *Metrics) ObserveReplayedCall() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.replayedCalls++
}

// ObserveBreakerOpen counts a circuit breaker tripping open for a dataset.
func (m *Metrics) ObserveBreakerOpen() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.breakerOpens++
}

// ObserveBreakerShortCircuit counts a market call refused locally because
// its dataset's breaker was open — money and latency not spent on a market
// that is known to be failing.
func (m *Metrics) ObserveBreakerShortCircuit() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.breakerShortCircuits++
}

// ObserveBreakerProbe counts a half-open probe call let through after a
// breaker's cooldown.
func (m *Metrics) ObserveBreakerProbe() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.breakerProbes++
}

// ObserveFederationCall counts a market call routed through the federation
// layer (before source selection).
func (m *Metrics) ObserveFederationCall() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.federationCalls++
}

// ObserveFederationFailover counts one failover: an endpoint's attempt
// hard-failed and the call moved on to the next-cheapest healthy endpoint.
func (m *Metrics) ObserveFederationFailover() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.federationFailovers++
}

// ObserveFederationHedge counts a hedge launched: the primary endpoint was
// slower than its hedge delay, so a second endpoint was raced against it.
func (m *Metrics) ObserveFederationHedge() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.federationHedges++
}

// ObserveFederationHedgeWin counts a hedge whose secondary endpoint answered
// first (the primary was cancelled as the loser).
func (m *Metrics) ObserveFederationHedgeWin() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.federationHedgeWins++
}

// ObserveFederationExhausted counts calls that failed on every configured
// endpoint (all refused by breakers or all hard-failed).
func (m *Metrics) ObserveFederationExhausted() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.federationExhausted++
}

// AddInflight moves the in-flight-queries gauge by delta: +1 as a query is
// admitted, -1 as it settles. The overload-protection layers watch this
// level to tell "busy" from "drowning".
func (m *Metrics) AddInflight(delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight += delta
}

// AddQueueDepth moves the admission-queue-depth gauge by delta: +1 as a
// request starts waiting for an execution slot, -1 as it is admitted or
// shed. Fed by the daemon's load shedder.
func (m *Metrics) AddQueueDepth(delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth += delta
}

// ObserveFailedQuerySpend folds the money a FAILED query still spent into
// the bill counters (its salvage: the rows are in the semantic store, so a
// retry will not re-buy them). Calls/records/transactions/price join the
// same cumulative families ObserveQuery feeds on success; the
// failed-query-specific transaction/price totals are additionally tracked
// so dashboards can see how much spend sits behind failures.
func (m *Metrics) ObserveFailedQuerySpend(calls, records, transactions int64, price float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls += calls
	m.records += records
	m.transactions += transactions
	m.price += price
	m.failedQuerySpendTransactions += transactions
	m.failedQuerySpendPrice += price
}

// ObserveWALAppend folds one write-ahead-log append into the registry:
// payload bytes, whether the append was fsynced before returning, and how
// long the append (including any fsync) took.
func (m *Metrics) ObserveWALAppend(bytes int, synced bool, micros int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.walAppends++
	m.walAppendBytes += int64(bytes)
	m.walAppendMicros += micros
	if synced {
		m.walSyncedAppends++
	}
}

// ObserveWALReplay folds one recovery replay into the registry: records
// applied, records skipped as already covered by the loaded snapshot, and
// whether a torn tail was truncated.
func (m *Metrics) ObserveWALReplay(replayed, skipped int, torn bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.walReplays++
	m.walReplayedRecords += int64(replayed)
	m.walSkippedRecords += int64(skipped)
	if torn {
		m.walTornTails++
	}
}

// ObserveCheckpoint folds one snapshot checkpoint into the registry. Failed
// checkpoints (ok=false) count separately; bytes/micros are then zero.
func (m *Metrics) ObserveCheckpoint(bytes, micros int64, ok bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !ok {
		m.checkpointFailures++
		return
	}
	m.checkpoints++
	m.checkpointBytes += bytes
	m.checkpointMicros += micros
}

// ObserveAuditDrop counts an audit record that could not be written to the
// audit sink. Auditing stays non-fatal; this is how the loss is seen.
func (m *Metrics) ObserveAuditDrop() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.auditDropped++
}

// ObservePlanCacheLookup folds one plan-template cache lookup into the
// registry: whether it hit, and whether it found-and-discarded a stale
// entry (an invalidation, which also counts as a miss).
func (m *Metrics) ObservePlanCacheLookup(hit, invalidated bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if hit {
		m.planCacheHits++
	} else {
		m.planCacheMisses++
	}
	if invalidated {
		m.planCacheInvalidations++
	}
}

// ObservePlanCacheEviction counts a cached skeleton displaced by capacity.
func (m *Metrics) ObservePlanCacheEviction() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.planCacheEvictions++
}

// ObservePlanner counts which planning strategy produced one query's plan
// ("cached", "greedy" or anything else, counted as dp).
func (m *Metrics) ObservePlanner(planner string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch planner {
	case "cached":
		m.plansCached++
	case "greedy":
		m.plansGreedy++
	default:
		m.plansDP++
	}
}

// ObserveSchedSingleflightHit counts a market call that joined an identical
// (or containing) in-flight call instead of going to the wire — one bill
// shared by several concurrent requesters.
func (m *Metrics) ObserveSchedSingleflightHit() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.schedSingleflightHits++
}

// ObserveSchedMerge counts one wire call fused out of several remainder
// boxes — across queries in the window, or one plan's siblings — and how
// many transactions the merge saved versus billing the parts separately.
func (m *Metrics) ObserveSchedMerge(saved int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.schedMergedCalls++
	if saved > 0 {
		m.schedMergedTransactionsSaved += saved
	}
}

// ObserveSchedDelayedCall counts a sub-transaction-size fetch the scheduler
// parked in the coalesce window to accumulate merge candidates.
func (m *Metrics) ObserveSchedDelayedCall() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.schedDelayedCalls++
}

// ObserveCallLatency folds one buyer-side wire call's duration, retries and
// paging included, into the call latency histogram.
func (m *Metrics) ObserveCallLatency(d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.callLatency.observe(d)
}

// ObserveCall folds one served market call into the registry — the
// seller-side entry point used by Market.Execute.
func (m *Metrics) ObserveCall(latency time.Duration, records, transactions int64, price float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	m.records += records
	m.transactions += transactions
	m.price += price
	m.callLatency.observe(latency)
}

// Snapshot is a point-in-time copy of every counter and histogram.
type Snapshot struct {
	// Queries and QueryErrors count finished and failed queries.
	Queries     int64
	QueryErrors int64
	// Calls/Records/Transactions/Price are the cumulative market bill.
	Calls        int64
	Records      int64
	Transactions int64
	Price        float64
	// Retries counts extra transport attempts across all calls.
	Retries int64
	// StoreHits counts plan accesses served entirely from the semantic
	// store; StoreHitRows the rows served locally instead of bought.
	StoreHits    int64
	StoreHitRows int64
	// StoreLookups counts indexed coverage lookups, StoreLookupMicros their
	// cumulative duration, StorePrunedBoxes the stored boxes index pruning
	// skipped, and StoreFastPathHits lookups answered by a single containing
	// box. StoreDroppedEntries and StoreCompactedEntries count compaction:
	// new entries dropped as redundant and stored entries absorbed/merged.
	StoreLookups          int64
	StoreLookupMicros     int64
	StorePrunedBoxes      int64
	StoreFastPathHits     int64
	StoreDroppedEntries   int64
	StoreCompactedEntries int64

	// ReplayedCalls counts retried calls the replay ledger served without
	// re-billing (seller side).
	ReplayedCalls int64
	// BreakerOpens/BreakerShortCircuits/BreakerProbes count circuit-breaker
	// activity in the engine's fetch path (buyer side): breakers tripping
	// open, calls refused while open, and half-open probes let through.
	BreakerOpens         int64
	BreakerShortCircuits int64
	BreakerProbes        int64
	// FailedQuerySpendTransactions/Price total the spend of queries that
	// ultimately failed — money salvaged into the semantic store.
	FailedQuerySpendTransactions int64
	FailedQuerySpendPrice        float64

	// WALAppends/WALAppendBytes/WALAppendMicros count write-ahead-log
	// appends in durable mode; WALSyncedAppends those fsynced before
	// Record returned. WALReplays counts recoveries, WALReplayedRecords
	// and WALSkippedRecords their applied/already-covered frames, and
	// WALTornTails recoveries that truncated a torn log tail.
	WALAppends         int64
	WALAppendBytes     int64
	WALAppendMicros    int64
	WALSyncedAppends   int64
	WALReplays         int64
	WALReplayedRecords int64
	WALSkippedRecords  int64
	WALTornTails       int64
	// Checkpoints/CheckpointBytes/CheckpointMicros count successful
	// snapshot checkpoints; CheckpointFailures the attempts that failed
	// (and left the log intact).
	Checkpoints        int64
	CheckpointFailures int64
	CheckpointBytes    int64
	CheckpointMicros   int64
	// AuditDropped counts audit records lost to sink write failures.
	AuditDropped int64

	// PlanCacheHits/Misses count plan-template cache lookups; Invalidations
	// entries discarded because a coverage epoch or the stats version moved;
	// Evictions entries displaced by the LRU capacity. PlansCached/Greedy/DP
	// count queries by the planning strategy that produced their plan.
	PlanCacheHits          int64
	PlanCacheMisses        int64
	PlanCacheInvalidations int64
	PlanCacheEvictions     int64
	PlansCached            int64
	PlansGreedy            int64
	PlansDP                int64

	// SchedSingleflightHits counts calls served by joining an identical
	// in-flight call; SchedMergedCalls wire calls fused out of several
	// boxes (across queries or one plan's siblings);
	// SchedMergedTransactionsSaved the transactions the merges saved versus
	// billing the parts; SchedDelayedCalls the fetches parked in the
	// coalesce window.
	SchedSingleflightHits        int64
	SchedMergedCalls             int64
	SchedMergedTransactionsSaved int64
	SchedDelayedCalls            int64

	// FederationCalls counts market calls routed through the federation
	// layer; FederationFailovers endpoint attempts that hard-failed and
	// moved the call to the next-cheapest healthy endpoint;
	// FederationHedges hedge attempts launched after the hedge delay;
	// FederationHedgeWins hedges whose secondary answered first; and
	// FederationExhausted calls that failed on every configured endpoint.
	FederationCalls     int64
	FederationFailovers int64
	FederationHedges    int64
	FederationHedgeWins int64
	FederationExhausted int64

	// InflightQueries and QueueDepth are gauges: queries currently executing
	// and requests currently parked waiting for an execution slot.
	InflightQueries int64
	QueueDepth      int64

	QueryLatency    HistogramSnapshot
	CallLatency     HistogramSnapshot
	OptimizeLatency HistogramSnapshot
}

// Snapshot returns a consistent copy of the registry.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot{
		Queries:               m.queries,
		QueryErrors:           m.queryErrors,
		Calls:                 m.calls,
		Records:               m.records,
		Transactions:          m.transactions,
		Price:                 m.price,
		Retries:               m.retries,
		StoreHits:             m.storeHits,
		StoreHitRows:          m.storeHitRows,
		StoreLookups:          m.storeLookups,
		StoreLookupMicros:     m.storeLookupMicros,
		StorePrunedBoxes:      m.storePrunedBoxes,
		StoreFastPathHits:     m.storeFastPath,
		StoreDroppedEntries:   m.storeDropped,
		StoreCompactedEntries: m.storeCompacted,

		ReplayedCalls:                m.replayedCalls,
		BreakerOpens:                 m.breakerOpens,
		BreakerShortCircuits:         m.breakerShortCircuits,
		BreakerProbes:                m.breakerProbes,
		FailedQuerySpendTransactions: m.failedQuerySpendTransactions,
		FailedQuerySpendPrice:        m.failedQuerySpendPrice,

		WALAppends:         m.walAppends,
		WALAppendBytes:     m.walAppendBytes,
		WALAppendMicros:    m.walAppendMicros,
		WALSyncedAppends:   m.walSyncedAppends,
		WALReplays:         m.walReplays,
		WALReplayedRecords: m.walReplayedRecords,
		WALSkippedRecords:  m.walSkippedRecords,
		WALTornTails:       m.walTornTails,
		Checkpoints:        m.checkpoints,
		CheckpointFailures: m.checkpointFailures,
		CheckpointBytes:    m.checkpointBytes,
		CheckpointMicros:   m.checkpointMicros,
		AuditDropped:       m.auditDropped,

		PlanCacheHits:          m.planCacheHits,
		PlanCacheMisses:        m.planCacheMisses,
		PlanCacheInvalidations: m.planCacheInvalidations,
		PlanCacheEvictions:     m.planCacheEvictions,
		PlansCached:            m.plansCached,
		PlansGreedy:            m.plansGreedy,
		PlansDP:                m.plansDP,

		SchedSingleflightHits:        m.schedSingleflightHits,
		SchedMergedCalls:             m.schedMergedCalls,
		SchedMergedTransactionsSaved: m.schedMergedTransactionsSaved,
		SchedDelayedCalls:            m.schedDelayedCalls,

		FederationCalls:     m.federationCalls,
		FederationFailovers: m.federationFailovers,
		FederationHedges:    m.federationHedges,
		FederationHedgeWins: m.federationHedgeWins,
		FederationExhausted: m.federationExhausted,

		InflightQueries: m.inflight,
		QueueDepth:      m.queueDepth,

		QueryLatency:    m.queryLatency.snapshot(),
		CallLatency:     m.callLatency.snapshot(),
		OptimizeLatency: m.optimizeLatency.snapshot(),
	}
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. prefix namespaces the metric families ("payless" on the buyer
// side, "market" on the seller side).
func (m *Metrics) WritePrometheus(w io.Writer, prefix string) {
	s := m.Snapshot()
	counter := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n", prefix, name, help, prefix, name)
		switch n := v.(type) {
		case int64:
			fmt.Fprintf(w, "%s_%s %d\n", prefix, name, n)
		case float64:
			fmt.Fprintf(w, "%s_%s %g\n", prefix, name, n)
		}
	}
	counter("queries_total", "Queries executed.", s.Queries)
	counter("query_errors_total", "Queries that failed.", s.QueryErrors)
	counter("calls_total", "RESTful market calls.", s.Calls)
	counter("records_total", "Records returned by market calls.", s.Records)
	counter("transactions_total", "Transactions billed (ceil(records/t) per call).", s.Transactions)
	counter("price_total", "Money billed across all calls.", s.Price)
	counter("call_retries_total", "Extra transport attempts beyond the first.", s.Retries)
	counter("store_hits_total", "Plan accesses served entirely from the semantic store.", s.StoreHits)
	counter("store_hit_rows_total", "Rows served from the semantic store instead of bought.", s.StoreHitRows)
	counter("store_lookups_total", "Indexed semantic-store coverage lookups.", s.StoreLookups)
	counter("store_lookup_micros_total", "Cumulative coverage-lookup wall-clock microseconds.", s.StoreLookupMicros)
	counter("store_pruned_boxes_total", "Stored boxes skipped by index pruning before subtraction.", s.StorePrunedBoxes)
	counter("store_fastpath_total", "Coverage lookups answered by a single containing box.", s.StoreFastPathHits)
	counter("store_dropped_entries_total", "New coverage entries dropped as redundant on Record.", s.StoreDroppedEntries)
	counter("store_compacted_entries_total", "Stored coverage entries absorbed or merged by compaction.", s.StoreCompactedEntries)
	counter("replayed_calls_total", "Retried calls served from the replay ledger without re-billing.", s.ReplayedCalls)
	counter("breaker_opens_total", "Circuit breakers tripped open.", s.BreakerOpens)
	counter("breaker_short_circuits_total", "Calls refused locally while a dataset's breaker was open.", s.BreakerShortCircuits)
	counter("breaker_probes_total", "Half-open probe calls let through after a breaker cooldown.", s.BreakerProbes)
	counter("failed_query_spend_transactions_total", "Transactions billed to queries that ultimately failed.", s.FailedQuerySpendTransactions)
	counter("failed_query_spend_price_total", "Money billed to queries that ultimately failed.", s.FailedQuerySpendPrice)
	counter("wal_appends_total", "Write-ahead-log appends in durable mode.", s.WALAppends)
	counter("wal_append_bytes_total", "Payload bytes appended to the write-ahead log.", s.WALAppendBytes)
	counter("wal_append_micros_total", "Cumulative WAL append wall-clock microseconds (including fsyncs).", s.WALAppendMicros)
	counter("wal_synced_appends_total", "WAL appends fsynced before Record returned.", s.WALSyncedAppends)
	counter("wal_replays_total", "Durable-store recoveries that replayed the log.", s.WALReplays)
	counter("wal_replayed_records_total", "WAL records applied during recovery.", s.WALReplayedRecords)
	counter("wal_skipped_records_total", "WAL records skipped as already covered by the loaded snapshot.", s.WALSkippedRecords)
	counter("wal_torn_tails_total", "Recoveries that truncated a torn WAL tail.", s.WALTornTails)
	counter("checkpoints_total", "Snapshot checkpoints completed.", s.Checkpoints)
	counter("checkpoint_failures_total", "Snapshot checkpoints that failed (log left intact).", s.CheckpointFailures)
	counter("checkpoint_bytes_total", "Bytes written by snapshot checkpoints.", s.CheckpointBytes)
	counter("checkpoint_micros_total", "Cumulative checkpoint wall-clock microseconds.", s.CheckpointMicros)
	counter("audit_dropped_total", "Audit records lost to sink write failures.", s.AuditDropped)
	counter("plan_cache_hits_total", "Plan-template cache lookups served from cache.", s.PlanCacheHits)
	counter("plan_cache_misses_total", "Plan-template cache lookups that missed.", s.PlanCacheMisses)
	counter("plan_cache_invalidations_total", "Cached plan skeletons discarded as stale (coverage epoch or stats version moved).", s.PlanCacheInvalidations)
	counter("plan_cache_evictions_total", "Cached plan skeletons displaced by the LRU capacity.", s.PlanCacheEvictions)
	counter("plans_cached_total", "Queries planned from the plan-template cache.", s.PlansCached)
	counter("plans_greedy_total", "Queries planned by the greedy fast path.", s.PlansGreedy)
	counter("plans_dp_total", "Queries planned by the full dynamic program.", s.PlansDP)
	counter("sched_singleflight_hits_total", "Calls served by joining an identical in-flight market call.", s.SchedSingleflightHits)
	counter("sched_merged_calls_total", "Wire calls fused out of several boxes: parked together across queries, or one plan's sibling calls.", s.SchedMergedCalls)
	counter("sched_merged_transactions_saved_total", "Transactions saved by merged calls versus billing the parts.", s.SchedMergedTransactionsSaved)
	counter("sched_delayed_calls_total", "Fetches parked in the coalesce window to accumulate merge candidates.", s.SchedDelayedCalls)
	counter("federation_calls_total", "Market calls routed through the federation layer.", s.FederationCalls)
	counter("federation_failovers_total", "Endpoint attempts that hard-failed and failed over to the next endpoint.", s.FederationFailovers)
	counter("federation_hedged_calls_total", "Hedge attempts launched after the primary exceeded its hedge delay.", s.FederationHedges)
	counter("federation_hedge_wins_total", "Hedges whose secondary endpoint answered first.", s.FederationHedgeWins)
	counter("federation_exhausted_total", "Calls that failed on every configured endpoint.", s.FederationExhausted)
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s gauge\n", prefix, name, help, prefix, name)
		fmt.Fprintf(w, "%s_%s %d\n", prefix, name, v)
	}
	gauge("inflight_queries", "Queries currently executing.", s.InflightQueries)
	gauge("queue_depth", "Requests currently queued for an execution slot.", s.QueueDepth)
	hist := func(name, help string, h HistogramSnapshot) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s histogram\n", prefix, name, help, prefix, name)
		for _, b := range h.Buckets {
			fmt.Fprintf(w, "%s_%s_bucket{le=\"%g\"} %d\n", prefix, name, b.Le.Seconds(), b.Count)
		}
		fmt.Fprintf(w, "%s_%s_bucket{le=\"+Inf\"} %d\n", prefix, name, h.Count)
		fmt.Fprintf(w, "%s_%s_sum %g\n", prefix, name, h.Sum.Seconds())
		fmt.Fprintf(w, "%s_%s_count %d\n", prefix, name, h.Count)
	}
	hist("query_duration_seconds", "End-to-end query latency.", s.QueryLatency)
	hist("call_duration_seconds", "Market call latency (including retries and paging).", s.CallLatency)
	hist("optimize_duration_seconds", "Optimizer latency per query.", s.OptimizeLatency)
}

// WriteCounterHead writes the HELP/TYPE preamble of one counter family in
// the Prometheus text exposition format. Samples follow via
// WriteLabeledCounter (or a plain fmt.Fprintf for unlabeled families).
func WriteCounterHead(w io.Writer, prefix, name, help string) {
	fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n", prefix, name, help, prefix, name)
}

// WriteLabeledCounter writes one counter sample carrying a single label
// pair. Go's %q quoting escapes backslash, double quote and newline exactly
// as the exposition format requires. The multi-tenant daemon renders its
// per-tenant spend families with it.
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
