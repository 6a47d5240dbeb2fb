// Package sched is PayLess's global market-call scheduler: a coalescing
// layer between the query engine and the market caller that exploits what a
// single-query optimizer cannot see — OTHER queries' calls that are in
// flight or about to launch at the same moment.
//
// Under transaction pricing p·ceil(records/t) (paper §2.1 Eq. 1), two
// concurrent queries that need the same box pay twice for the same rows,
// and two queries that need adjacent slivers of one table each pay the ceil
// rounding twice. The scheduler removes both overheads:
//
//   - Single-flight: identical in-flight access queries share one wire call
//     and one bill. Waiters have per-waiter context semantics — a canceled
//     waiter detaches without canceling the shared call; the call itself is
//     torn down only when its last waiter has detached.
//
//   - Cross-query merging: with a coalesce window enabled, sub-transaction
//     fetches are parked briefly and adjacent/overlapping boxes from
//     different queries are fused into one call when the ceil-pricing cost
//     model says the union is no more expensive than the parts. Only exact
//     unions are fused (the bounding box adds no gap rows), which makes the
//     merge provably never-worse under ceil pricing:
//     ceil((a+b)/t) <= ceil(a/t) + ceil(b/t). This generalizes the paper's
//     bind-value coalescing (Fig. 9, box B2) across query boundaries.
//
// Billing attribution keeps client-side accounting equal to the seller's
// meter: exactly one participant of a shared or merged call — the first to
// collect the result — carries the full Transactions and Price; every other
// participant reports zero. Each participant's rows are filtered down to
// its own access query, so Result.Records is the per-requester row count
// (honest statistics feedback), not the billed count.
//
// Recording to the semantic store happens exactly once per wire call. For a
// call with a single live requester the scheduler leaves recording to that
// requester's engine, in plan order — a lone query's bill and store geometry
// are exactly what its plan says. For shared, merged, or abandoned (all
// waiters detached after the money was spent) calls, the scheduler records
// the fetched box itself and tells requesters via Info.Recorded so their
// engines skip the duplicate.
//
// A wire call runs under its launching request's context values — the
// query's retry budget and trace record reach the transport — but not under
// its cancellation: it is torn down only when its last waiter detaches.
package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/obs"
	"payless/internal/overload"
	"payless/internal/region"
	"payless/internal/semstore"
	"payless/internal/value"
)

// Request is one engine-side fetch: the planned access query, the box it
// covers, and whether its rows are destined for the semantic store.
type Request struct {
	Meta  *catalog.Table
	Box   region.Box
	Query catalog.AccessQuery
	// Record marks SQR fetches whose rows must end up in the semantic
	// store. The scheduler uses it to decide whether a shared or abandoned
	// call needs recording on the requesters' behalf.
	Record bool
}

// Info reports how the scheduler served a request.
type Info struct {
	// Shared is true when the request rode a wire call it did not launch
	// alone; SharedWith counts the other requesters on the same call.
	Shared     bool
	SharedWith int
	// Merged is true when the wire call fused several requesters' boxes
	// into one union box.
	Merged bool
	// Delayed is true when the request was parked in the coalesce window
	// before dispatch.
	Delayed bool
	// Recorded is true when the scheduler already recorded the call's rows
	// into the semantic store; the requester's engine must not record them
	// again.
	Recorded bool
}

// Config tunes a Scheduler.
type Config struct {
	// Window is how long a sub-transaction-size fetch may be parked waiting
	// for mergeable company. Zero (the default) dispatches every request
	// immediately — single-flighting still applies.
	Window time.Duration
	// TuplesPerTransaction returns the dataset's transaction size t; values
	// <= 0 fall back to 100 (the market default).
	TuplesPerTransaction func(dataset string) int
	// Estimate returns the estimated row count of a box, for the merge cost
	// model and the sub-transaction parking gate. Nil means unknown sizes:
	// every windowed fetch is parkable and exact unions merge
	// unconditionally (they are never worse under ceil pricing).
	Estimate func(table string, b region.Box) float64
	// Store, when non-nil, receives the rows of shared, merged, and
	// abandoned record-path calls — exactly once per wire call.
	Store *semstore.Store
	// Metrics, when non-nil, receives the scheduler counter families.
	Metrics *obs.Metrics
	// Now stamps semantic-store entries; nil means time.Now.
	Now func() time.Time
}

// Stats is a snapshot of the scheduler's counters.
type Stats struct {
	// SingleflightHits counts requests that joined an already-in-flight
	// wire call instead of issuing their own.
	SingleflightHits int64
	// MergedCalls counts wire calls that fused more than one requester box;
	// MergedTransactionsSaved sums the transactions the fusions saved
	// versus issuing the parts separately.
	MergedCalls             int64
	MergedTransactionsSaved int64
	// DelayedCalls counts requests parked in the coalesce window.
	DelayedCalls int64
}

// Scheduler coalesces market calls across concurrent queries. One scheduler
// serves one client (one buyer account); it is safe for concurrent use.
type Scheduler struct {
	caller market.Caller
	cfg    Config

	mu       sync.Mutex
	inflight map[string]*flight
	pending  map[string]*group

	singleflightHits atomic.Int64
	mergedCalls      atomic.Int64
	mergedSaved      atomic.Int64
	delayedCalls     atomic.Int64
}

// New builds a scheduler issuing its wire calls through caller.
func New(caller market.Caller, cfg Config) *Scheduler {
	return &Scheduler{
		caller:   caller,
		cfg:      cfg,
		inflight: make(map[string]*flight),
		pending:  make(map[string]*group),
	}
}

// PendingGroups reports how many coalesce-window groups are currently
// parked (armed timers). Dead groups — every waiter canceled — are dropped
// eagerly, so a drained scheduler reports zero even mid-window.
func (s *Scheduler) PendingGroups() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		SingleflightHits:        s.singleflightHits.Load(),
		MergedCalls:             s.mergedCalls.Load(),
		MergedTransactionsSaved: s.mergedSaved.Load(),
		DelayedCalls:            s.delayedCalls.Load(),
	}
}

// flight is one wire call and the set of requesters riding it.
type flight struct {
	meta  *catalog.Table
	box   region.Box
	query catalog.AccessQuery
	key   string
	// record is true when at least one source requester is on the SQR path.
	record bool
	// sources holds the originating requests when the flight fused several
	// boxes (merged is then true); nil for plain flights.
	sources []Request
	merged  bool

	cancel context.CancelFunc
	done   chan struct{}
	res    market.Result
	err    error
	// recorded is set before done closes; read only after <-done.
	recorded bool

	mu      sync.Mutex
	waiters int
	joiners int
	billed  bool
}

// flightKey canonicalizes an access query for the single-flight map. The
// query's own String() omits the dataset (tables are unique per catalog,
// datasets namespace accounts), so it is prefixed here.
func flightKey(q catalog.AccessQuery) string {
	return q.Dataset + "\x00" + q.String()
}

func tableKey(t *catalog.Table) string { return t.Dataset + "\x00" + t.Name }

func (s *Scheduler) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

func (s *Scheduler) tuplesPer(dataset string) int {
	if s.cfg.TuplesPerTransaction != nil {
		if t := s.cfg.TuplesPerTransaction(dataset); t > 0 {
			return t
		}
	}
	return 100
}

// Fetch serves one engine fetch through the scheduler. It blocks until the
// underlying wire call completes or ctx is done; cancelling ctx detaches
// this waiter only — a call with other live waiters keeps running.
func (s *Scheduler) Fetch(ctx context.Context, req Request) (market.Result, Info, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return market.Result{}, Info{}, err
	}
	key := flightKey(req.Query)

	s.mu.Lock()
	// 1. Identical call already in flight: join it.
	if f, ok := s.inflight[key]; ok {
		f.join(req.Record)
		s.mu.Unlock()
		s.singleflightHits.Add(1)
		s.cfg.Metrics.ObserveSchedSingleflightHit()
		return s.wait(ctx, req, f, Info{})
	}
	// 2. A strictly wider call in flight for the same table: piggyback on
	// it and filter its rows down to this request afterwards.
	for _, f := range s.inflight {
		if f.meta.Dataset == req.Meta.Dataset && f.meta.Name == req.Meta.Name &&
			f.box.D() == req.Box.D() && f.box.Contains(req.Box) {
			f.join(req.Record)
			s.mu.Unlock()
			s.singleflightHits.Add(1)
			s.cfg.Metrics.ObserveSchedSingleflightHit()
			return s.wait(ctx, req, f, Info{})
		}
	}
	// 3. Coalesce window: park sub-transaction fetches and let the window
	// timer fuse whatever mergeable company shows up. A caller whose
	// deadline cannot outlive the window is dispatched immediately instead:
	// parking it would spend its entire remaining budget waiting for
	// company it will never get to bill with.
	if s.cfg.Window > 0 && s.parkable(req) && !overload.ShortOf(ctx, s.cfg.Window) {
		pr := s.park(ctx, req)
		s.mu.Unlock()
		s.delayedCalls.Add(1)
		s.cfg.Metrics.ObserveSchedDelayedCall()
		select {
		case <-pr.ready:
		case <-ctx.Done():
			s.mu.Lock()
			if pr.fl == nil {
				s.abandon(pr)
				s.mu.Unlock()
				return market.Result{}, Info{Delayed: true}, ctx.Err()
			}
			s.mu.Unlock()
			// Assigned in the same instant we were canceled: fall through
			// to the flight wait, which detaches immediately.
		}
		return s.wait(ctx, req, pr.fl, Info{Delayed: true})
	}
	// 4. Launch a fresh wire call.
	f := s.launch(ctx, req.Meta, req.Box, req.Query, req.Record, nil)
	s.mu.Unlock()
	return s.wait(ctx, req, f, Info{})
}

// join attaches one more requester to an in-flight call. Caller holds s.mu.
func (f *flight) join(record bool) {
	f.mu.Lock()
	f.joiners++
	f.waiters++
	f.mu.Unlock()
	// A joiner on the record path upgrades the flight: its rows must reach
	// the store even though the launcher did not ask. f.record is only read
	// after the wire call completes, so this write is safe under s.mu.
	if record {
		f.record = true
	}
}

// launch registers and starts a wire call for the given box on behalf of
// the request whose context is reqCtx. The call keeps reqCtx's values (the
// query's retry budget, its trace record) but not its cancellation: other
// requesters may join, so only the last waiter detaching cancels it. Caller
// holds s.mu. sources is non-nil only for merged flights.
func (s *Scheduler) launch(reqCtx context.Context, meta *catalog.Table, box region.Box, q catalog.AccessQuery, record bool, sources []Request) *flight {
	ctx, cancel := context.WithCancel(context.WithoutCancel(reqCtx))
	f := &flight{
		meta:    meta,
		box:     box,
		query:   q,
		key:     flightKey(q),
		record:  record,
		sources: sources,
		merged:  len(sources) > 1,
		cancel:  cancel,
		done:    make(chan struct{}),
		waiters: maxInt(1, len(sources)),
		joiners: maxInt(1, len(sources)),
	}
	s.inflight[f.key] = f
	go s.run(ctx, f)
	return f
}

// run issues the wire call, settles the flight, and performs the
// scheduler-side semantic-store recording when it is the scheduler's job.
func (s *Scheduler) run(ctx context.Context, f *flight) {
	res, err := s.caller.Call(ctx, f.query)

	s.mu.Lock()
	if s.inflight[f.key] == f {
		delete(s.inflight, f.key)
	}
	s.mu.Unlock()

	f.mu.Lock()
	sharedEver := f.joiners > 1
	abandoned := f.waiters == 0
	f.mu.Unlock()

	if err == nil {
		if f.merged {
			s.mergedCalls.Add(1)
			saved := s.mergeSavings(f, res)
			s.cfg.Metrics.ObserveSchedMerge(saved)
			s.mergedSaved.Add(saved)
		}
		// Record exactly once per wire call — but only when the requesters'
		// engines cannot: a shared call would be double-recorded, a merged
		// call's union box belongs to no single requester, and an abandoned
		// call has no engine left to salvage the paid-for rows. The sole
		// live requester of a plain call records through its own engine, in
		// its plan order.
		if f.record && s.cfg.Store != nil && (sharedEver || f.merged || abandoned) {
			if _, rerr := s.cfg.Store.Record(f.meta, f.box, res.Rows, s.now()); rerr == nil {
				f.recorded = true
			}
		}
	}
	f.res, f.err = res, err
	close(f.done)
}

// mergeSavings computes how many transactions fusing the sources saved
// versus issuing each part separately, from the actual rows delivered.
func (s *Scheduler) mergeSavings(f *flight, res market.Result) int64 {
	t := int64(s.tuplesPer(f.meta.Dataset))
	var parts int64
	for _, src := range f.sources {
		n := int64(0)
		part := catalog.CompileFilter(f.meta, src.Query)
		for _, row := range res.Rows {
			if part.Matches(row) {
				n++
			}
		}
		parts += ceilDiv(n, t)
	}
	saved := parts - res.Transactions
	if saved < 0 {
		saved = 0
	}
	return saved
}

// wait blocks on the flight and assembles this requester's view of the
// shared result: rows filtered to its own query, the bill attributed to
// exactly one requester.
func (s *Scheduler) wait(ctx context.Context, req Request, f *flight, info Info) (market.Result, Info, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		// Joins happen under s.mu, so detaching under it too decides "last
		// waiter" atomically with respect to new joiners.
		s.mu.Lock()
		f.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		f.mu.Unlock()
		if last && s.inflight[f.key] == f {
			// A torn-down call takes no new joiners: they would inherit a
			// cancellation that is not theirs.
			delete(s.inflight, f.key)
		}
		s.mu.Unlock()
		if last {
			// The last waiter detaching tears the wire call down; if the
			// money was already spent, run() salvages the rows into the
			// store on the record path.
			f.cancel()
		}
		return market.Result{}, info, ctx.Err()
	}
	f.cancel() // release the flight context once settled
	if f.err != nil {
		f.mu.Lock()
		f.waiters--
		f.mu.Unlock()
		return market.Result{}, info, f.err
	}

	f.mu.Lock()
	f.waiters--
	first := !f.billed
	f.billed = true
	sharedWith := f.joiners - 1
	f.mu.Unlock()

	info.Shared = sharedWith > 0
	info.SharedWith = sharedWith
	info.Merged = f.merged
	info.Recorded = f.recorded

	res := f.res
	out := market.Result{Schema: res.Schema, Rows: res.Rows}
	if f.merged || flightKey(req.Query) != f.key {
		// Merged union or piggybacked superset: hand back only the rows the
		// requester asked for.
		out.Rows = filterRows(f.meta, req.Query, res.Rows)
	}
	out.Records = len(out.Rows)
	if first {
		// The first requester to collect carries the whole bill, so the sum
		// of client-side reports equals the seller's meter exactly.
		out.Transactions = res.Transactions
		out.Price = res.Price
	}
	return out, info, nil
}

func filterRows(meta *catalog.Table, q catalog.AccessQuery, rows []value.Row) []value.Row {
	out := make([]value.Row, 0, len(rows))
	f := catalog.CompileFilter(meta, q)
	for _, row := range rows {
		if f.Matches(row) {
			out = append(out, row)
		}
	}
	return out
}

// ---- coalesce window -------------------------------------------------

// group is the set of parked requests for one table, awaiting the window
// timer.
type group struct {
	key  string
	reqs []*parked
	// timer fires the group at the window's end; live counts requests not
	// yet abandoned. When the last live request cancels, the timer is
	// stopped and the group dropped immediately — an armed timer on a dead
	// group would otherwise be retained until the window elapsed.
	timer *time.Timer
	live  int
}

// parked is one request sitting in the coalesce window.
type parked struct {
	// ctx is the request's context; the flight a cluster launches runs
	// under its first live member's.
	ctx context.Context
	req Request
	g   *group
	// fl is assigned under s.mu when the window fires; ready closes right
	// after. abandoned marks a request whose waiter gave up pre-dispatch.
	fl        *flight
	ready     chan struct{}
	abandoned bool
}

// parkable reports whether a request is small enough to be worth delaying:
// its estimated row count is below the transaction size (the call would
// waste most of its ceil rounding). Unknown sizes are treated as small.
func (s *Scheduler) parkable(req Request) bool {
	if s.cfg.Estimate == nil {
		return true
	}
	est := s.cfg.Estimate(req.Meta.Name, req.Box)
	return est < float64(s.tuplesPer(req.Meta.Dataset))
}

// park adds the request to its table's pending group, starting the window
// timer when the group is new. Caller holds s.mu.
func (s *Scheduler) park(ctx context.Context, req Request) *parked {
	key := tableKey(req.Meta)
	g, ok := s.pending[key]
	if !ok {
		g = &group{key: key}
		s.pending[key] = g
		g.timer = time.AfterFunc(s.cfg.Window, func() { s.fire(g) })
	}
	pr := &parked{ctx: ctx, req: req, g: g, ready: make(chan struct{})}
	g.reqs = append(g.reqs, pr)
	g.live++
	return pr
}

// abandon detaches a parked request whose waiter canceled pre-dispatch.
// When it was the group's last live request, the window timer is stopped
// and the group removed — nothing would fire anyway, and holding the timer
// for the rest of the window retains the group (and its requests) for no
// reason. Caller holds s.mu.
func (s *Scheduler) abandon(pr *parked) {
	pr.abandoned = true
	g := pr.g
	g.live--
	if g.live == 0 && s.pending[g.key] == g {
		delete(s.pending, g.key)
		g.timer.Stop()
	}
}

// fire dispatches a pending group: it clusters the parked boxes into exact
// unions the cost model approves of, then launches (or joins) one flight
// per cluster.
func (s *Scheduler) fire(g *group) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending[g.key] == g {
		delete(s.pending, g.key)
	}
	live := g.reqs[:0]
	for _, pr := range g.reqs {
		if !pr.abandoned {
			live = append(live, pr)
		}
	}
	if len(live) == 0 {
		return
	}
	for _, cl := range s.cluster(live) {
		s.dispatchCluster(cl)
	}
}

// cluster greedily fuses parked requests whose boxes form exact unions the
// ceil cost model approves. Groups are small; the quadratic sweep is fine.
type mergeCluster struct {
	meta *catalog.Table
	box  region.Box
	prs  []*parked
}

func (s *Scheduler) cluster(live []*parked) []*mergeCluster {
	clusters := make([]*mergeCluster, 0, len(live))
	for _, pr := range live {
		clusters = append(clusters, &mergeCluster{meta: pr.req.Meta, box: pr.req.Box, prs: []*parked{pr}})
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(clusters) && !changed; i++ {
			for j := i + 1; j < len(clusters); j++ {
				u, ok := s.fusable(clusters[i].meta, clusters[i].box, clusters[j].box)
				if !ok {
					continue
				}
				clusters[i].box = u
				clusters[i].prs = append(clusters[i].prs, clusters[j].prs...)
				clusters = append(clusters[:j], clusters[j+1:]...)
				changed = true
				break
			}
		}
	}
	return clusters
}

// fusable returns the union box of a and b when (1) it is exact — the
// boxes differ on at most one dimension and overlap or touch on it, so the
// bounding box buys no gap rows, (2) the union is expressible as a market
// call (categorical axes cannot span, §4.2 Fig. 8), and (3) the ceil cost
// model prices the union at no more than the parts. For exact unions the
// true bill always satisfies (3); the estimate gate just avoids merges the
// model cannot vouch for.
func (s *Scheduler) fusable(meta *catalog.Table, a, b region.Box) (region.Box, bool) {
	if a.D() != b.D() {
		return region.Box{}, false
	}
	diff := -1
	for i := range a.Dims {
		if a.Dims[i] == b.Dims[i] {
			continue
		}
		if diff >= 0 {
			return region.Box{}, false
		}
		diff = i
	}
	u := a.Clone()
	if diff >= 0 {
		x, y := a.Dims[diff], b.Dims[diff]
		if x.Lo > y.Hi || y.Lo > x.Hi {
			return region.Box{}, false // gap between the parts: union not exact
		}
		u.Dims[diff] = region.Interval{Lo: min64(x.Lo, y.Lo), Hi: max64(x.Hi, y.Hi)}
	}
	if _, err := catalog.QueryForBox(meta, u); err != nil {
		return region.Box{}, false
	}
	if s.cfg.Estimate != nil {
		t := float64(s.tuplesPer(meta.Dataset))
		costU := ceilF(s.cfg.Estimate(meta.Name, u) / t)
		costA := ceilF(s.cfg.Estimate(meta.Name, a) / t)
		costB := ceilF(s.cfg.Estimate(meta.Name, b) / t)
		if costU > costA+costB {
			return region.Box{}, false
		}
	}
	return u, true
}

// dispatchCluster launches one flight for a cluster (or joins an identical
// in-flight call) and wakes the cluster's waiters. Caller holds s.mu.
func (s *Scheduler) dispatchCluster(cl *mergeCluster) {
	record := false
	sources := make([]Request, 0, len(cl.prs))
	for _, pr := range cl.prs {
		record = record || pr.req.Record
		sources = append(sources, pr.req)
	}
	var f *flight
	if len(cl.prs) == 1 {
		// Single request: dispatch its original query verbatim so a delayed
		// solo fetch stays byte-identical to an undelayed one.
		q := cl.prs[0].req.Query
		if ex, ok := s.inflight[flightKey(q)]; ok {
			ex.join(record)
			f = ex
			s.singleflightHits.Add(1)
			s.cfg.Metrics.ObserveSchedSingleflightHit()
		} else {
			f = s.launch(cl.prs[0].ctx, cl.meta, cl.box, q, record, nil)
		}
	} else {
		q, err := catalog.QueryForBox(cl.meta, cl.box)
		if err != nil {
			// fusable pre-validated the union; if conversion still fails,
			// fall back to launching each part separately.
			for _, pr := range cl.prs {
				s.dispatchCluster(&mergeCluster{meta: cl.meta, box: pr.req.Box, prs: []*parked{pr}})
			}
			return
		}
		if ex, ok := s.inflight[flightKey(q)]; ok {
			for range cl.prs {
				ex.join(record)
				s.singleflightHits.Add(1)
				s.cfg.Metrics.ObserveSchedSingleflightHit()
			}
			f = ex
		} else {
			f = s.launch(cl.prs[0].ctx, cl.meta, cl.box, q, record, sources)
		}
	}
	for _, pr := range cl.prs {
		pr.fl = f
		close(pr.ready)
	}
}

func ceilDiv(n, t int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + t - 1) / t
}

func ceilF(x float64) int64 {
	n := int64(x)
	if float64(n) < x {
		n++
	}
	return n
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
