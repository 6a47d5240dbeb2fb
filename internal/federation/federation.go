// Package federation routes market calls across N mirrors of the same
// logical data market. Real cloud markets offer a dataset from several
// regions at different prices, latencies, and availability ("Joint Data
// Purchasing and Data Placement in a Geo-Distributed Data Market",
// PAPERS.md); the buyer's problem is source selection: buy each remainder
// box from the endpoint that minimizes expected cost, and keep queries
// completing when any one market degrades or partitions.
//
// The federated Caller sits between the global call scheduler and the
// per-endpoint transports (HTTP connectors or in-process markets):
//
//	engine → sched → federation.Caller → connector(endpoint 1..N)
//
// It is the only path to the market: a client opened on a single market is
// a federation of one endpoint, so this package is also the one home of
// the circuit breakers, kept in each endpoint's health record.
//
// Per call it (a) ranks endpoints by a price+latency+health cost model,
// (b) retries an endpoint's connector.Fault with backoff — it owns every
// attempt of a call — (c) fails over to the next-cheapest healthy endpoint
// on a hard error, with a circuit per endpoint×dataset, and (d)
// hedges a slow call by racing the next endpoint, cancelling the loser. One
// Policy value says when it hedges and when a failing endpoint is closed to
// a dataset. Every extra attempt spends a token of the query's RetryBudget.
//
// Billing stays exactly-once per endpoint: the federation layer assigns the
// idempotent CallID once, above every retry and hedge, so a retry against
// the same endpoint replays from its ledger instead of re-billing. A hedge
// that loses against a *different* endpoint may still have billed there —
// that bounded loss is the "lost-call remainder" the chaos suite accounts
// for, and the buyer records exactly one result either way.
package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"payless/internal/catalog"
	"payless/internal/connector"
	"payless/internal/market"
	"payless/internal/obs"
)

// Endpoint configures one market mirror.
type Endpoint struct {
	// Name identifies the endpoint in traces, metrics, health reports, and
	// catalog Mirror entries ("us-east"). Must be unique and non-empty.
	Name string
	// Caller is the endpoint's transport: an HTTP connector bound to the
	// mirror's base URL and account key, or an in-process market caller.
	Caller market.Caller
	// PriceFactor scales list price at this endpoint; <= 0 means 1.0.
	PriceFactor float64
	// LatencyHint seeds the cost model's latency term until observed
	// round-trips accumulate into the endpoint's EWMA.
	LatencyHint time.Duration
}

// Policy is how hard one call may fight for an answer: when an unanswered
// call races the next-ranked endpoint (a hedge), and when an endpoint that
// keeps failing one dataset is closed to it (a circuit breaker). The zero
// value never hedges and never opens a circuit: a hedge may bill a second
// mirror, so spending on one is opt-in.
type Policy struct {
	// HedgeAfter, when positive, is how long the chosen endpoint may stay
	// silent before the next-ranked one is raced against it; <= 0 never
	// hedges.
	HedgeAfter time.Duration
	// BreakAfter consecutive failures of one dataset at one endpoint open
	// that circuit; 0 never opens one.
	BreakAfter int
	// Cooldown is how long an open circuit refuses calls before it admits
	// a probe; 0 is 5s.
	Cooldown time.Duration
}

// Config tunes the federated caller.
type Config struct {
	// Policy bounds how hard each call fights for an answer.
	Policy Policy
	// Mirrors holds the pinned tables: a table listed here is offered only
	// by the named endpoints, at the terms its entries give (a zero factor
	// or hint falls back to the endpoint's own). A table not listed is
	// offered by every endpoint at the endpoint's terms. New copies it; a
	// later UpdateEndpoints changes the pool, never these lists.
	Mirrors map[string][]catalog.Mirror
	// Metrics receives the payless_federation_* counter families; nil is a
	// valid no-op sink.
	Metrics *obs.Metrics
	// Retry is how a visit retries an endpoint's faults; the zero value
	// is 3 attempts a page backing off 100 ms → 2 s. Tests shorten it.
	Retry Retry
}

// Retry is a visit's schedule: up to Attempts attempts per result page,
// counted since the last page arrived, each retry after the server's
// Retry-After capped at Max, or else after Base doubled per earlier retry,
// capped at Max and jittered into its upper half.
type Retry struct {
	Attempts  int
	Base, Max time.Duration
}

// delay returns the wait before retry n (n >= 1) of one page.
func (r Retry) delay(n int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return min(retryAfter, r.Max)
	}
	d := min(r.Base<<min(n-1, 20), r.Max)
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// latencyUnit converts the cost model's latency term to a dimensionless
// penalty: an endpoint one latencyUnit slower costs as much extra as a 100%
// price markup. One second keeps price dominant for same-region mirrors
// (milliseconds apart) while letting latency break price ties and punish
// degraded mirrors (seconds apart).
const latencyUnit = time.Second

// ewmaAlpha is the weight of the newest observation in the latency EWMA
// (alpha = 1/4: new = (3*old + obs) / 4).
const ewmaAlpha = 4

// endpoint is one configured Endpoint of the pool and its health record.
type endpoint struct {
	Endpoint
	health *health
}

// Caller is the federated market.Caller.
type Caller struct {
	cfg Config
	now func() time.Time // the circuits' clock; tests substitute it
	// pinned is Config.Mirrors indexed table → endpoint name; fixed at New,
	// so rank reads it without a lock.
	pinned map[string]map[string]catalog.Mirror

	// mu guards eps for hot reload: UpdateEndpoints swaps the slice
	// wholesale (never mutates entries in place), so readers that copied
	// the header under RLock keep a consistent view for the whole call.
	mu  sync.RWMutex
	eps []*endpoint
}

// endpoints snapshots the current endpoint pool.
func (f *Caller) endpoints() []*endpoint {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.eps
}

// New builds a federated caller over the given endpoints. At least one
// endpoint with a non-nil transport and a unique non-empty name is required.
func New(eps []Endpoint, cfg Config) (*Caller, error) {
	pool, err := buildPool(eps, nil)
	if err != nil {
		return nil, err
	}
	if cfg.Retry == (Retry{}) {
		cfg.Retry = Retry{Attempts: 3, Base: 100 * time.Millisecond, Max: 2 * time.Second}
	}
	if cfg.Policy.Cooldown <= 0 {
		cfg.Policy.Cooldown = 5 * time.Second
	}
	f := &Caller{cfg: cfg, now: time.Now, eps: pool, pinned: make(map[string]map[string]catalog.Mirror, len(cfg.Mirrors))}
	for table, ms := range cfg.Mirrors {
		if len(ms) == 0 {
			continue
		}
		byName := make(map[string]catalog.Mirror, len(ms))
		for _, m := range ms {
			byName[m.Endpoint] = m
		}
		f.pinned[table] = byName
	}
	return f, nil
}

// buildPool validates an endpoint set and builds its runtime state: names
// must be non-empty and unique, every endpoint needs a transport, and a
// PriceFactor <= 0 becomes 1. An endpoint whose name is in old keeps its
// health record; any other starts a fresh one.
func buildPool(eps []Endpoint, old []*endpoint) ([]*endpoint, error) {
	if len(eps) == 0 {
		return nil, errors.New("federation: no endpoints configured")
	}
	prev := make(map[string]*endpoint, len(old))
	for _, e := range old {
		prev[e.Name] = e
	}
	seen := make(map[string]bool, len(eps))
	pool := make([]*endpoint, 0, len(eps))
	for _, e := range eps {
		if e.Name == "" {
			return nil, errors.New("federation: endpoint with empty name")
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("federation: duplicate endpoint %q", e.Name)
		}
		if e.Caller == nil {
			return nil, fmt.Errorf("federation: endpoint %q has no transport", e.Name)
		}
		seen[e.Name] = true
		if e.PriceFactor <= 0 {
			e.PriceFactor = 1
		}
		ne := &endpoint{Endpoint: e, health: &health{}}
		if p, ok := prev[e.Name]; ok {
			ne.health = p.health
		}
		pool = append(pool, ne)
	}
	return pool, nil
}

// candidate is one rankable (endpoint, effective terms) pair for a call.
type candidate struct {
	ep    *endpoint
	score float64
}

// rank returns the call's eligible endpoints cheapest-first under the cost
// model
//
//	score = priceFactor × (1 + latency/latencyUnit) × (1 + failureStreak)
//
// where latency is the endpoint's observed EWMA (falling back to its static
// hint) and failureStreak is the run of consecutive hard failures — a
// flaky-but-not-yet-tripped mirror is deprioritized before its circuit ever
// opens. A pinned table (Config.Mirrors) is offered only by its listed
// endpoints still in the pool, at the terms its entries override.
func (f *Caller) rank(q catalog.AccessQuery) []candidate {
	mirrors := f.pinned[q.Table]
	eps := f.endpoints()
	cands := make([]candidate, 0, len(eps))
	for _, ep := range eps {
		factor := ep.PriceFactor
		h := ep.health
		h.mu.Lock()
		ewma, streak := h.ewma, h.streak
		// A tripped endpoint whose cooldown has elapsed competes at its own
		// terms: the streak that ranked it down must not also keep the
		// circuit's probe from ever reaching it.
		if c := h.circuits[q.Dataset]; streak > 0 && !c.openedAt.IsZero() && !c.probing &&
			c.retryIn(f.now(), f.cfg.Policy.Cooldown) == 0 {
			streak = 0
		}
		h.mu.Unlock()
		lat := ewma
		if lat == 0 {
			lat = ep.LatencyHint
		}
		if mirrors != nil {
			m, ok := mirrors[ep.Name]
			if !ok {
				continue // table not offered at this endpoint
			}
			if m.PriceFactor > 0 {
				factor = m.PriceFactor
			}
			if m.LatencyHint > 0 && ewma == 0 {
				lat = m.LatencyHint
			}
		}
		score := factor * (1 + lat.Seconds()/latencyUnit.Seconds()) * float64(1+streak)
		cands = append(cands, candidate{ep: ep, score: score})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score < cands[j].score })
	return cands
}

// attemptResult is one endpoint attempt's outcome and the retries it took.
type attemptResult struct {
	ep      *endpoint
	res     market.Result
	err     error
	retries int
	hedge   bool
}

// Call implements market.Caller: rank, try, fail over, optionally hedge.
func (f *Caller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	// The idempotent CallID is assigned here, above every endpoint attempt:
	// retries and hedges all present the same logical call, so any single
	// endpoint bills it at most once (its replay ledger dedupes). One
	// logical call is one deposit into the query's shared retry budget.
	BudgetFrom(ctx).Grant(grantPerCall)
	market.EnsureCallID(&q)
	f.cfg.Metrics.ObserveFederationCall()

	ranked := f.rank(q)
	if len(ranked) == 0 {
		return market.Result{}, fmt.Errorf("federation: no endpoint offers table %s", q.Table)
	}

	// Attempts run under a child context so a decided race can cancel the
	// losers without touching the caller's ctx.
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptResult, len(ranked)) // buffered: abandoned attempts never block
	var (
		next      int // index of the next candidate to launch
		inflight  int
		failovers int
		refused   int
		hedged    bool
		retries   int
		minRetry  time.Duration = -1
		lastErr   error
	)

	// launch starts the next endpoint whose circuit admits the call and
	// reports whether it did. An extra attempt — a failover or a hedge —
	// must be funded by the query's retry budget, or layered retries
	// multiply; the token is spent only once an endpoint is there to try,
	// so a call with nowhere left to go is never charged (denied reports a
	// refused token).
	launch := func(extra, isHedge bool) (launched, denied bool) {
		for next < len(ranked) {
			ep := ranked[next].ep
			next++
			probe, berr := f.admit(ep.health, q.Dataset)
			if berr != nil {
				refused++
				lastErr = fmt.Errorf("federation: endpoint %s: %w", ep.Name, berr)
				var coe *market.CircuitOpenError
				if errors.As(berr, &coe) && coe.RetryAfter > 0 &&
					(minRetry < 0 || coe.RetryAfter < minRetry) {
					minRetry = coe.RetryAfter
				}
				continue
			}
			if extra && !spend(ctx) {
				f.settle(ep.health, q.Dataset, probe, 0, context.Canceled) // never attempted: no verdict
				return false, true
			}
			inflight++
			go func() {
				start := time.Now()
				res, n, err := f.visit(actx, ep, q)
				f.settle(ep.health, q.Dataset, probe, time.Since(start), err)
				results <- attemptResult{ep: ep, res: res, err: err, retries: n, hedge: isHedge}
			}()
			return true, false
		}
		return false, false
	}

	if launched, _ := launch(false, false); !launched {
		// Every endpoint refused up front: all circuits open.
		return market.Result{}, f.exhausted(q, len(ranked), refused, minRetry, lastErr)
	}

	var hedgeC <-chan time.Time
	if d := f.cfg.Policy.HedgeAfter; d > 0 && len(ranked) > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	for {
		select {
		case <-ctx.Done():
			// Caller gave up: in-flight attempts see actx cancelled (their
			// settle records no verdict) and drain into the buffer.
			return market.Result{}, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			// A hedge is speculation, not necessity: when the shared retry
			// budget is empty it is skipped silently and the primary
			// attempt keeps running alone.
			if launched, _ := launch(true, true); launched {
				hedged = true
				f.cfg.Metrics.ObserveFederationHedge()
			}
		case r := <-results:
			inflight--
			retries += r.retries
			if r.err == nil {
				cancel() // the losing hedge is abandoned; any bill it landed is the lost-call remainder
				if r.hedge {
					f.cfg.Metrics.ObserveFederationHedgeWin()
				}
				r.res.Route = market.Route{Endpoint: r.ep.Name, Failovers: failovers,
					Hedged: hedged, HedgeWon: r.hedge, Retries: retries}
				return r.res, nil
			}
			if ctx.Err() != nil {
				return market.Result{}, ctx.Err()
			}
			if isContextErr(r.err) {
				// The attempt lost a decided race or inherited a cancel;
				// with the parent ctx alive, the race must still be decided
				// by the remaining attempt (if any).
				if inflight > 0 {
					continue
				}
				return market.Result{}, r.err
			}
			lastErr = fmt.Errorf("federation: endpoint %s: %w", r.ep.Name, r.err)
			// With a hedge in flight, the hedge already is the next endpoint.
			if inflight == 0 {
				launched, denied := launch(true, false)
				if denied {
					return market.Result{}, fmt.Errorf("federation: not failing over for %s.%s: %w (last error: %v)",
						q.Dataset, q.Table, market.ErrRetryBudget, lastErr)
				}
				if !launched {
					return market.Result{}, f.exhausted(q, len(ranked), refused, minRetry, lastErr)
				}
			}
			failovers++
			f.cfg.Metrics.ObserveFederationFailover()
		}
	}
}

// visit is one endpoint's share of a call: an attempt, then a retry of each
// connector.Fault on the Retry schedule, resuming at the page that failed,
// for a budget token each. Any other error (a 4xx, an in-process caller's,
// a cancelled context) or a page's last allowed attempt ends the visit;
// Call then fails over. A retry wait ends as soon as ctx does. It returns
// how many retries it made, each counted into the metrics as it happens.
func (f *Caller) visit(ctx context.Context, ep *endpoint, q catalog.AccessQuery) (market.Result, int, error) {
	res, err := ep.Caller.Call(ctx, q)
	retries := 0
	for page, tries := 0, 1; err != nil; tries++ {
		var fault *connector.Fault
		if !errors.As(err, &fault) {
			return market.Result{}, retries, err
		}
		if fault.Page > page {
			page, tries = fault.Page, 1 // a page arrived: a fresh allowance
		}
		if tries >= f.cfg.Retry.Attempts {
			return market.Result{}, retries, fmt.Errorf("market unreachable after %d attempts: %w", tries, fault.Err)
		}
		if !spend(ctx) {
			return market.Result{}, retries, fmt.Errorf("market: giving up after %d attempts: %w (last error: %v)",
				tries, market.ErrRetryBudget, fault.Err)
		}
		retries++
		f.cfg.Metrics.ObserveCallRetries(1)
		t := time.NewTimer(f.cfg.Retry.delay(tries, fault.RetryAfter))
		select {
		case <-ctx.Done():
			t.Stop()
			return market.Result{}, retries, fmt.Errorf("market call aborted after %d attempts: %w (last error: %v)", tries, ctx.Err(), fault.Err)
		case <-t.C:
		}
		res, err = fault.Resume(ctx)
	}
	return res, retries, nil
}

// exhausted builds the terminal error once every eligible endpoint refused
// or failed. When circuits refused them all, the error carries the soonest
// re-probe time and matches errors.Is(err, market.ErrCircuitOpen) so
// user-facing transports can answer 503 + Retry-After.
func (f *Caller) exhausted(q catalog.AccessQuery, total, refused int, minRetry time.Duration, lastErr error) error {
	f.cfg.Metrics.ObserveFederationExhausted()
	if refused == total {
		if minRetry < 0 {
			minRetry = 0
		}
		return fmt.Errorf("federation: all %d endpoints for dataset %s refused: %w",
			total, q.Dataset, &market.CircuitOpenError{RetryAfter: minRetry})
	}
	if lastErr == nil {
		lastErr = errors.New("no endpoint available")
	}
	return fmt.Errorf("federation: all %d endpoints failed for %s.%s: %w",
		total, q.Dataset, q.Table, lastErr)
}

// isContextErr reports whether err is a context cancellation/deadline, at
// any wrap depth.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// UpdateEndpoints hot-swaps the endpoint pool without dropping in-flight
// calls: attempts already racing keep their endpoint handles and settle
// into their health records, while every later rank() sees the new pool.
// An endpoint surviving the swap by name keeps its health record — latency
// EWMA, failure counters, streak, circuits — so a reload never resets
// source selection to cold hints. A removed endpoint's record, its open
// circuits included, goes with it: one re-added later under the same name
// starts fresh and closed. The pinned tables of Config.Mirrors are
// untouched: a pinned endpoint that leaves the pool stops offering its
// tables until it comes back. On an invalid set (see New) the pool is left
// untouched.
func (f *Caller) UpdateEndpoints(eps []Endpoint) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	pool, err := buildPool(eps, f.eps)
	if err != nil {
		return err
	}
	f.eps = pool
	return nil
}
