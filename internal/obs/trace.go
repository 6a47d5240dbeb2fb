// Package obs is PayLess's observability layer: per-query execution traces
// and process-wide metrics. The paper's value claim is money saved per query
// (price = p·ceil(records/t), §2.1 Eq. 1), so the unit of observation here
// is the RESTful market call — every call's box, row count, transaction
// bill, retry count and latency is recorded, alongside the query's
// parse → bind → optimize → execute spans and how much of its data the
// semantic store served for free.
//
// The layer is pull-free and allocation-light: a nil *Trace is a valid
// no-op receiver, so instrumented code paths cost one nil check when
// tracing is disabled.
package obs

import (
	"fmt"
	"strings"
	"time"
)

// Span is one timed phase of a query (parse, bind, optimize, execute).
type Span struct {
	Name  string
	Start time.Time
	// Duration is the wall-clock time the phase took.
	Duration time.Duration
	// Err holds the phase's error text, empty on success.
	Err string
}

// CallRecord is one RESTful market call: where the money went.
type CallRecord struct {
	// Dataset and Table name the market relation called.
	Dataset string
	Table   string
	// Query renders the access query issued (predicates included).
	Query string
	// Records is the number of rows the call returned — the billed quantity.
	Records int64
	// Transactions billed: ceil(Records / t), 0 for an empty result.
	Transactions int64
	// Price charged for the call.
	Price float64
	// Retries counts extra transport attempts beyond the first (retries of
	// HTTP connector faults only; the in-process market never retries), on
	// the record that carries the bill of a shared call.
	Retries int
	// Latency is the end-to-end call time including retries and paging.
	Latency time.Duration
	// Recorded reports whether the call's rows entered the semantic store
	// (the SQR path); NewRows is how many were new, i.e. not already owned.
	Recorded bool
	NewRows  int
	// Compacted is how many stored coverage entries recording this call
	// removed (absorbed by the new box or merged into a wider one).
	Compacted int
	// WALMicros is the time the call's write-ahead-log append took (durable
	// store only); WALSynced whether that append was fsynced before the
	// call's rows became billing-visible.
	WALMicros int64
	WALSynced bool
	// Coalesced reports that the global call scheduler served this call by
	// sharing or merging a wire call instead of issuing it verbatim;
	// SharedWith is how many other requesters rode the same wire call.
	// A coalesced non-paying participant shows Transactions == 0 — the one
	// bill is attributed to exactly one participant.
	Coalesced  bool
	SharedWith int
	// Endpoint names the federation endpoint that served the call.
	// Failovers counts the endpoints that hard-failed before this one
	// answered; Hedged reports that a second endpoint was raced after the
	// hedge delay, and HedgeWon that the hedge (not the primary) delivered
	// the result. Copied from the call's market.Result.Route.
	Endpoint  string
	Failovers int
	Hedged    bool
	HedgeWon  bool
}

// Trace is the execution trace of one query. It is populated by a single
// query execution (the engine appends call records in plan order under the
// client's control) and must not be read concurrently with the query run.
// All methods are safe on a nil receiver and do nothing, which is what
// makes the disabled-tracing path near-free.
type Trace struct {
	// SQL is the traced statement.
	SQL   string
	Start time.Time
	// Total is the end-to-end query duration, set by Finish.
	Total time.Duration
	// Plan is the optimizer's chosen plan, EstTransactions its price
	// estimate. Planner names where the plan came from ("dp" or
	// "cached").
	Plan            string
	Planner         string
	EstTransactions int64
	// PlansEvaluated/BoxesEnumerated/BoxesKept mirror the optimizer's
	// search-effort counters (paper Figs. 14–15).
	PlansEvaluated  int
	BoxesEnumerated int
	BoxesKept       int
	// Spans are the query phases in execution order.
	Spans []Span
	// Calls are the market calls in plan-merge order: deterministic at
	// every fetch-concurrency level.
	Calls []CallRecord
	// StoreHits counts plan accesses served entirely from the semantic
	// store (zero-price relations, Theorem 2). StoreHitRows estimates the
	// rows served from the store rather than bought, across all accesses.
	StoreHits    int
	StoreHitRows int64
	// StoreLookups counts indexed coverage lookups during planning and
	// execution; StoreLookupMicros their cumulative wall-clock micros,
	// StorePrunedBoxes the stored boxes the index skipped before
	// subtraction, and StoreFastPathHits the lookups answered by a single
	// containing box.
	StoreLookups      int
	StoreLookupMicros int64
	StorePrunedBoxes  int64
	StoreFastPathHits int
}

// NewTrace starts a trace for one statement.
func NewTrace(sql string) *Trace {
	return &Trace{SQL: sql, Start: time.Now()}
}

// StartSpan opens a named phase and returns the closure that ends it. The
// returned func records the duration and the phase error (nil for success).
func (t *Trace) StartSpan(name string) func(err error) {
	if t == nil {
		return func(error) {}
	}
	start := time.Now()
	return func(err error) {
		sp := Span{Name: name, Start: start, Duration: time.Since(start)}
		if err != nil {
			sp.Err = err.Error()
		}
		t.Spans = append(t.Spans, sp)
	}
}

// AddCall appends one market call record.
func (t *Trace) AddCall(r CallRecord) {
	if t == nil {
		return
	}
	t.Calls = append(t.Calls, r)
}

// AddStoreHit records a plan access served entirely from the semantic store.
func (t *Trace) AddStoreHit(rows int64) {
	if t == nil {
		return
	}
	t.StoreHits++
	t.StoreHitRows += rows
}

// AddStoreLookup records one indexed coverage lookup: its duration, how
// many stored boxes the index pruned, and whether the single-containing-box
// fast path answered it.
func (t *Trace) AddStoreLookup(micros int64, pruned int, fastPath bool) {
	if t == nil {
		return
	}
	t.StoreLookups++
	t.StoreLookupMicros += micros
	t.StorePrunedBoxes += int64(pruned)
	if fastPath {
		t.StoreFastPathHits++
	}
}

// AddStoreRows records rows served from the store within a partially
// covered access (the remainder was bought, the rest was already owned).
func (t *Trace) AddStoreRows(rows int64) {
	if t == nil || rows <= 0 {
		return
	}
	t.StoreHitRows += rows
}

// SetPlan records the chosen plan and its price estimate.
func (t *Trace) SetPlan(plan string, estTransactions int64) {
	if t == nil {
		return
	}
	t.Plan = plan
	t.EstTransactions = estTransactions
}

// SetPlanner records which planning strategy produced the plan.
func (t *Trace) SetPlanner(planner string) {
	if t == nil {
		return
	}
	t.Planner = planner
}

// SetCounters records the optimizer's search-effort counters.
func (t *Trace) SetCounters(plansEvaluated, boxesEnumerated, boxesKept int) {
	if t == nil {
		return
	}
	t.PlansEvaluated = plansEvaluated
	t.BoxesEnumerated = boxesEnumerated
	t.BoxesKept = boxesKept
}

// Finish stamps the total query duration.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Total = time.Since(t.Start)
}

// CallTransactions sums the transactions billed across all recorded calls.
// For a traced execution this equals the query report's Transactions
// exactly — the oracle the trace tests pin.
func (t *Trace) CallTransactions() int64 {
	if t == nil {
		return 0
	}
	var sum int64
	for _, c := range t.Calls {
		sum += c.Transactions
	}
	return sum
}

// Retries sums the transport retries across all recorded calls.
func (t *Trace) Retries() int64 {
	if t == nil {
		return 0
	}
	var sum int64
	for _, c := range t.Calls {
		sum += int64(c.Retries)
	}
	return sum
}

// Describe renders the trace as an EXPLAIN ANALYZE-style report: phases,
// the plan, one line per market call with its bill and latency, and the
// semantic-store contribution.
func (t *Trace) Describe() string {
	if t == nil {
		return "(no trace)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", t.SQL)
	for _, sp := range t.Spans {
		fmt.Fprintf(&b, "  %-9s %12v", sp.Name, sp.Duration)
		if sp.Err != "" {
			fmt.Fprintf(&b, "  error: %s", sp.Err)
		}
		b.WriteByte('\n')
	}
	if t.Plan != "" {
		fmt.Fprintf(&b, "  plan: %s\n", t.Plan)
	}
	if t.Planner != "" {
		fmt.Fprintf(&b, "  planner=%s\n", t.Planner)
	}
	if t.PlansEvaluated > 0 || t.BoxesEnumerated > 0 {
		fmt.Fprintf(&b, "  search: %d plans evaluated, %d boxes enumerated, %d kept\n",
			t.PlansEvaluated, t.BoxesEnumerated, t.BoxesKept)
	}
	var records int64
	var price float64
	for _, c := range t.Calls {
		records += c.Records
		price += c.Price
	}
	fmt.Fprintf(&b, "  market: %d call(s), %d records, %d transactions, $%.2f",
		len(t.Calls), records, t.CallTransactions(), price)
	if r := t.Retries(); r > 0 {
		fmt.Fprintf(&b, ", %d retries", r)
	}
	b.WriteByte('\n')
	for i, c := range t.Calls {
		name := c.Table
		if c.Dataset != "" {
			name = c.Dataset + "." + c.Table
		}
		fmt.Fprintf(&b, "   %2d. %-20s %6d rows %4d trans  $%.2f  %v",
			i+1, name, c.Records, c.Transactions, c.Price, c.Latency)
		if c.Retries > 0 {
			fmt.Fprintf(&b, "  (%d retries)", c.Retries)
		}
		if c.Endpoint != "" {
			fmt.Fprintf(&b, "  via %s", c.Endpoint)
			if c.Failovers > 0 {
				fmt.Fprintf(&b, " (%d failover(s))", c.Failovers)
			}
			if c.Hedged {
				if c.HedgeWon {
					b.WriteString(" hedge-won")
				} else {
					b.WriteString(" hedged")
				}
			}
		}
		if c.Recorded {
			fmt.Fprintf(&b, "  +%d new rows stored", c.NewRows)
		}
		if c.Coalesced {
			fmt.Fprintf(&b, "  coalesced(shared with %d)", c.SharedWith)
		}
		if c.WALMicros > 0 {
			fmt.Fprintf(&b, "  wal %dµs", c.WALMicros)
			if c.WALSynced {
				b.WriteString(" (synced)")
			}
		}
		b.WriteByte('\n')
		if c.Query != "" {
			fmt.Fprintf(&b, "       %s\n", c.Query)
		}
	}
	fmt.Fprintf(&b, "  store: %d access(es) served locally, ~%d rows reused\n",
		t.StoreHits, t.StoreHitRows)
	if t.StoreLookups > 0 {
		fmt.Fprintf(&b, "  store index: %d lookup(s) in %dµs, %d boxes pruned, %d fast-path\n",
			t.StoreLookups, t.StoreLookupMicros, t.StorePrunedBoxes, t.StoreFastPathHits)
	}
	if t.Total > 0 {
		fmt.Fprintf(&b, "  total: %v\n", t.Total)
	}
	return b.String()
}

// Tracer decides which queries are traced and receives finished traces.
// Implementations must be safe for concurrent use: one Client serves a
// whole buyer organisation.
type Tracer interface {
	// Begin returns the trace to populate for the statement, or nil to
	// leave the statement untraced.
	Begin(sql string) *Trace
	// Finish delivers the completed trace (also delivered on Result.Trace).
	Finish(t *Trace)
}

// CollectTracer traces every query and discards nothing: the finished
// trace is surfaced on Result.Trace only. It is the tracer the CLI's
// \trace mode and the tests use.
type CollectTracer struct{}

// Begin implements Tracer.
func (CollectTracer) Begin(sql string) *Trace { return NewTrace(sql) }

// Finish implements Tracer.
func (CollectTracer) Finish(*Trace) {}
