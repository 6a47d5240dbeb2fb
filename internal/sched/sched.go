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
//   - Cross-query merging: with a coalesce window enabled, a sub-transaction
//     fetch is parked for the window only while another query is open (see
//     Open) — a lone query never waits, and a parked fetch whose last
//     company closes is released at once. Parked boxes are fused by Fuse,
//     the same exact-union rule the engine applies to one plan's sibling
//     calls before submission: only unions that add no gap rows and that the
//     ceil-pricing cost model prices at no more than the parts, which makes a
//     merge provably never-worse: ceil((a+b)/t) <= ceil(a/t) + ceil(b/t).
//     This generalizes the paper's bind-value coalescing (Fig. 9, box B2)
//     across query boundaries.
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
// query's retry budget reaches the transport — but not under its
// cancellation: it is torn down only when its last waiter detaches. Its
// route (market.Result.Route) comes back to every requester; its retries,
// like its bill, to the one that pays.
package sched

import (
	"context"
	"slices"
	"sync"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/obs"
	"payless/internal/region"
	"payless/internal/rewrite"
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
	// Parts lists the planned queries a request the engine fused out of
	// several (see Fuse) stands for; nil otherwise. The wire call that
	// carries them books the fusion as a merge, once.
	Parts []catalog.AccessQuery
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
	// Window bounds how long a sub-transaction-size fetch may be parked
	// waiting for mergeable company from other open queries. Zero (the
	// default) dispatches every request immediately — single-flighting still
	// applies.
	Window time.Duration
	// TuplesPerTransaction returns the dataset's transaction size t; nil or
	// values <= 0 fall back to rewrite.DefaultTuplesPerTransaction.
	TuplesPerTransaction func(dataset string) int
	// Estimate returns the estimated row count of a box, for the merge cost
	// model and the sub-transaction parking gate. Nil means unknown sizes:
	// every windowed fetch is parkable and exact unions merge
	// unconditionally (they are never worse under ceil pricing).
	Estimate func(table string, b region.Box) float64
	// Store, when non-nil, receives the rows of shared, merged, and
	// abandoned record-path calls — exactly once per wire call.
	Store *semstore.Store
	// Metrics, when non-nil, receives the scheduler counter families and
	// every wire call's latency.
	Metrics *obs.Metrics
}

// Scheduler coalesces market calls across concurrent queries. One scheduler
// serves one client (one buyer account); it is safe for concurrent use.
type Scheduler struct {
	caller market.Caller
	cfg    Config

	mu       sync.Mutex
	inflight map[string]*flight
	pending  map[string]*group
	// open counts registered queries (see Open).
	open int
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

// flight is one wire call and the set of requesters riding it.
type flight struct {
	meta  *catalog.Table
	box   region.Box
	query catalog.AccessQuery
	key   string
	// record is true when at least one source requester is on the SQR path.
	record bool
	// parts holds the planned queries the call fuses when there are
	// several, booked as one merge when it completes; merged is true when
	// the window fused several requesters' boxes into this call.
	parts  []catalog.AccessQuery
	merged bool

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

func (s *Scheduler) tuplesPer(dataset string) int {
	if s.cfg.TuplesPerTransaction != nil {
		if t := s.cfg.TuplesPerTransaction(dataset); t > 0 {
			return t
		}
	}
	return rewrite.DefaultTuplesPerTransaction
}

// query is one Open registration; closed makes its close idempotent.
type query struct{ closed bool }

type queryKey struct{}

// Open registers a query as open until the returned close is called and
// returns ctx carrying the registration, which Fetch reads from there. An
// open query is company the coalesce window may wait for: a fetch parks only
// while another query is open. close is idempotent.
func (s *Scheduler) Open(ctx context.Context) (context.Context, func()) {
	q := &query{}
	s.mu.Lock()
	s.open++
	s.mu.Unlock()
	return context.WithValue(ctx, queryKey{}, q), func() { s.close(q) }
}

// close ends a registration. With at most one query left open, whatever is
// parked belongs to that query and has no company left to wait for: it is
// released at once.
func (s *Scheduler) close(q *query) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	s.open--
	if s.open <= 1 {
		s.fireAll()
	}
}

// Fetch serves one engine fetch through the scheduler. It blocks until the
// underlying wire call completes or ctx is done; cancelling ctx detaches
// this waiter only — a call with other live waiters keeps running. A fetch
// whose ctx carries no Open registration is a query of its own for as long
// as it runs.
func (s *Scheduler) Fetch(ctx context.Context, req Request) (market.Result, Info, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return market.Result{}, Info{}, err
	}
	key := flightKey(req.Query)
	_, registered := ctx.Value(queryKey{}).(*query)

	s.mu.Lock()
	if !registered {
		s.open++
		defer s.close(&query{})
	}
	// 1. Identical call already in flight: join it.
	if f, ok := s.inflight[key]; ok {
		f.join(req.Record)
		s.mu.Unlock()
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
			s.cfg.Metrics.ObserveSchedSingleflightHit()
			return s.wait(ctx, req, f, Info{})
		}
	}
	// 3. Coalesce window: park a sub-transaction fetch while another open
	// query may bring mergeable company; a lone query never waits. A caller
	// whose deadline cannot outlive the window is dispatched immediately
	// instead: parking it would spend its entire remaining budget waiting
	// for company it will never get to bill with.
	dl, hasDL := ctx.Deadline()
	if s.cfg.Window > 0 && s.open > 1 && s.parkable(req) && (!hasDL || time.Until(dl) >= s.cfg.Window) {
		pr := s.park(ctx, req)
		s.mu.Unlock()
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
	f := s.launch(ctx, req.Meta, req.Box, req.Query, req.Record, req.Parts, 1)
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
// query's retry budget) but not its cancellation: other requesters may
// join, so only the last waiter detaching cancels it. Caller holds s.mu.
// parts lists the fused queries (see flight.parts); requesters counts the
// parked requests a window merge launches for at once.
func (s *Scheduler) launch(reqCtx context.Context, meta *catalog.Table, box region.Box, q catalog.AccessQuery, record bool, parts []catalog.AccessQuery, requesters int) *flight {
	ctx, cancel := context.WithCancel(context.WithoutCancel(reqCtx))
	f := &flight{
		meta:    meta,
		box:     box,
		query:   q,
		key:     flightKey(q),
		record:  record,
		parts:   parts,
		merged:  requesters > 1,
		cancel:  cancel,
		done:    make(chan struct{}),
		waiters: max(1, requesters),
		joiners: max(1, requesters),
	}
	s.inflight[f.key] = f
	go s.run(ctx, f)
	return f
}

// run issues the wire call, settles the flight, and performs the
// scheduler-side semantic-store recording when it is the scheduler's job.
func (s *Scheduler) run(ctx context.Context, f *flight) {
	start := time.Now()
	res, err := s.caller.Call(ctx, f.query)
	s.cfg.Metrics.ObserveCallLatency(time.Since(start))

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
		if len(f.parts) > 1 {
			s.noteMerge(f, res)
		}
		// Record exactly once per wire call — but only when the requesters'
		// engines cannot: a shared call would be double-recorded, a merged
		// call's union box belongs to no single requester, and an abandoned
		// call has no engine left to salvage the paid-for rows. The sole
		// live requester of a plain call records through its own engine, in
		// its plan order.
		if f.record && s.cfg.Store != nil && (sharedEver || f.merged || abandoned) {
			if _, rerr := s.cfg.Store.Record(f.meta, f.box, res.Batch, time.Now()); rerr == nil {
				f.recorded = true
			}
		}
	}
	f.res, f.err = res, err
	close(f.done)
}

// PartCounts counts the rows of b that fall in each part's query.
func PartCounts(meta *catalog.Table, parts []catalog.AccessQuery, b value.Batch) []int64 {
	counts := make([]int64, len(parts))
	for i, q := range parts {
		f := catalog.CompileFilter(meta, q)
		for r := range b.N {
			if f.MatchesAt(b, r) {
				counts[i]++
			}
		}
	}
	return counts
}

// noteMerge books one completed wire call that fused several parts: the
// merge counters gain the transactions the fusion saved versus billing each
// part's delivered rows on its own (never negative).
func (s *Scheduler) noteMerge(f *flight, res market.Result) {
	t := s.tuplesPer(f.meta.Dataset)
	var parts int64
	for _, n := range PartCounts(f.meta, f.parts, res.Batch) {
		parts += rewrite.Price(float64(n), t)
	}
	s.cfg.Metrics.ObserveSchedMerge(parts - res.Transactions)
}

// wait blocks on the flight and assembles this requester's view of the
// shared result: rows filtered to its own query, the route for every
// requester, the bill and the retries attributed to exactly one.
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
	out := market.Result{Schema: res.Schema, Batch: res.Batch, Route: res.Route}
	out.Route.Retries = 0
	if f.merged || flightKey(req.Query) != f.key {
		// Merged union or piggybacked superset: hand back only the rows the
		// requester asked for.
		out.Batch = filterRows(f.meta, req.Query, res.Batch)
	}
	out.Records = out.Batch.N
	if first {
		// The first requester to collect carries the whole bill, so the sum
		// of client-side reports equals the seller's meter exactly. The
		// call's retries ride with the bill.
		out.Transactions = res.Transactions
		out.Price = res.Price
		out.Route.Retries = res.Route.Retries
	}
	return out, info, nil
}

// filterRows returns the rows of b that q selects, as a batch of their own.
func filterRows(meta *catalog.Table, q catalog.AccessQuery, b value.Batch) value.Batch {
	ids := make([]int32, 0, b.N)
	f := catalog.CompileFilter(meta, q)
	for r := range b.N {
		if f.MatchesAt(b, r) {
			ids = append(ids, int32(r))
		}
	}
	return b.Select(ids)
}

// ---- coalesce window -------------------------------------------------

// group is the set of parked requests for one table, awaiting the window
// timer or the close of their last company.
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
	// ctx is the request's context; the flight a fusion launches runs
	// under its first member's.
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

// fire dispatches a group whose window expired, unless close or abandon
// already took it out of the pending set.
func (s *Scheduler) fire(g *group) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending[g.key] == g {
		s.dispatchGroup(g)
	}
}

// fireAll dispatches every pending group now. Caller holds s.mu.
func (s *Scheduler) fireAll() {
	for _, g := range s.pending {
		g.timer.Stop()
		s.dispatchGroup(g)
	}
}

// dispatchGroup removes a pending group — which always has a live request —
// fuses its live requests' boxes and launches (or joins) one flight per
// fusion. Caller holds s.mu.
func (s *Scheduler) dispatchGroup(g *group) {
	delete(s.pending, g.key)
	live := g.reqs[:0]
	for _, pr := range g.reqs {
		if !pr.abandoned {
			live = append(live, pr)
		}
	}
	boxes := make([]region.Box, len(live))
	for i, pr := range live {
		boxes[i] = pr.req.Box
	}
	meta := live[0].req.Meta
	for _, fu := range s.Fuse(meta, boxes) {
		prs := make([]*parked, len(fu.Members))
		for i, m := range fu.Members {
			prs[i] = live[m]
		}
		s.dispatch(meta, fu, prs)
	}
}

// Fusion is one call Fuse makes out of boxes: the indexes of the boxes it
// covers, ascending, and their exact union with its access query. Query is
// set only when there is more than one member.
type Fusion struct {
	Box     region.Box
	Query   catalog.AccessQuery
	Members []int
}

// Fuse greedily clusters boxes of one table into exact unions the ceil cost
// model approves (see fusable); a box nothing fuses with is a Fusion of its
// own. Fusions come out in the order of their first member. The engine
// fuses one plan's sibling calls with it before submission and the window
// the boxes parked together, so both merge by one rule. Inputs are small;
// the quadratic sweep is fine.
func (s *Scheduler) Fuse(meta *catalog.Table, boxes []region.Box) []Fusion {
	fus := make([]Fusion, len(boxes))
	for i, b := range boxes {
		fus[i] = Fusion{Box: b, Members: []int{i}}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(fus) && !changed; i++ {
			for j := i + 1; j < len(fus); j++ {
				u, q, ok := s.fusable(meta, fus[i].Box, fus[j].Box)
				if !ok {
					continue
				}
				fus[i].Box, fus[i].Query = u, q
				fus[i].Members = append(fus[i].Members, fus[j].Members...)
				fus = append(fus[:j], fus[j+1:]...)
				changed = true
				break
			}
		}
	}
	for _, fu := range fus {
		slices.Sort(fu.Members)
	}
	return fus
}

// fusable returns the union box of a and b and its access query when (1)
// the union is exact — the boxes differ on at most one dimension and
// overlap or touch on it, so the bounding box buys no gap rows, (2) it is
// expressible as a market call (categorical axes cannot span, §4.2 Fig. 8),
// and (3) the ceil cost model prices it at no more than the parts. For exact
// unions the true bill always satisfies (3); the estimate gate just avoids
// merges the model cannot vouch for.
func (s *Scheduler) fusable(meta *catalog.Table, a, b region.Box) (region.Box, catalog.AccessQuery, bool) {
	if a.D() != b.D() {
		return region.Box{}, catalog.AccessQuery{}, false
	}
	diff := -1
	for i := range a.Dims {
		if a.Dims[i] == b.Dims[i] {
			continue
		}
		if diff >= 0 {
			return region.Box{}, catalog.AccessQuery{}, false
		}
		diff = i
	}
	u := a.Clone()
	if diff >= 0 {
		x, y := a.Dims[diff], b.Dims[diff]
		if x.Lo > y.Hi || y.Lo > x.Hi {
			return region.Box{}, catalog.AccessQuery{}, false // gap between the parts: union not exact
		}
		u.Dims[diff] = region.Interval{Lo: min(x.Lo, y.Lo), Hi: max(x.Hi, y.Hi)}
	}
	q, err := catalog.QueryForBox(meta, u)
	if err != nil {
		return region.Box{}, catalog.AccessQuery{}, false
	}
	if s.cfg.Estimate != nil {
		t := s.tuplesPer(meta.Dataset)
		price := func(x region.Box) int64 { return rewrite.Price(s.cfg.Estimate(meta.Name, x), t) }
		if price(u) > price(a)+price(b) {
			return region.Box{}, catalog.AccessQuery{}, false
		}
	}
	return u, q, true
}

// dispatch launches one flight for a fusion of parked requests (or joins an
// identical in-flight call) and wakes their waiters. Caller holds s.mu.
func (s *Scheduler) dispatch(meta *catalog.Table, fu Fusion, prs []*parked) {
	record := false
	for _, pr := range prs {
		record = record || pr.req.Record
	}
	// A lone request keeps its original query verbatim, so a delayed solo
	// fetch stays byte-identical to an undelayed one. A merge's parts are
	// its members' planned queries, an engine-fused member contributing its
	// own parts, so the call is booked as one merge of all of them.
	q, parts := prs[0].req.Query, prs[0].req.Parts
	if len(prs) > 1 {
		q, parts = fu.Query, nil
		for _, pr := range prs {
			if pr.req.Parts != nil {
				parts = append(parts, pr.req.Parts...)
			} else {
				parts = append(parts, pr.req.Query)
			}
		}
	}
	f, ok := s.inflight[flightKey(q)]
	if ok {
		for range prs {
			f.join(record)
			s.cfg.Metrics.ObserveSchedSingleflightHit()
		}
	} else {
		f = s.launch(prs[0].ctx, meta, fu.Box, q, record, parts, len(prs))
	}
	for _, pr := range prs {
		pr.fl = f
		close(pr.ready)
	}
}
