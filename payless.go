// Package payless is a client-side SQL layer over cloud data markets that
// minimises the money paid to data sellers, reproducing "Query Optimization
// over Cloud Data Market" (Li, Lo, Yiu, Xu — EDBT 2015).
//
// A data market sells tables behind a RESTful X→Y interface and bills
// ceil(records/t) "transactions" per call. PayLess exposes SQL over such
// tables (mixed freely with local tables), optimises each query with a
// price-based dynamic program that uses bind joins as an access path, and
// rewrites calls against a semantic store of everything previously
// retrieved, so repeated analytics touch the market as little as possible.
//
// Typical use:
//
//	client, err := payless.Open(payless.Config{
//		Tables: marketTables,          // from market registration
//		Caller: connectorOrInProcess,  // HTTP connector or in-process market
//	})
//	res, err := client.Query(`SELECT City, AVG(Temperature) FROM ...`)
//	fmt.Println(res.Report.Transactions) // money actually spent
package payless

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"payless/internal/catalog"
	"payless/internal/connector"
	"payless/internal/core"
	"payless/internal/engine"
	"payless/internal/federation"
	"payless/internal/market"
	"payless/internal/obs"
	"payless/internal/overload"
	"payless/internal/sched"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/stats"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/wal"
)

// Consistency selects how stale reused results may be (paper §4.3).
type Consistency struct {
	// window > 0 limits reuse to entries younger than window; 0 is weak
	// consistency (reuse everything); negative disables reuse entirely.
	window time.Duration
}

// Weak reuses every stored result (the paper's default: datasets are
// append-only).
func Weak() Consistency { return Consistency{} }

// Window reuses results fetched within d (the paper's "X-week consistency").
func Window(d time.Duration) Consistency { return Consistency{window: d} }

// Strong never reuses stored results: semantic query rewriting is disabled
// and every query pays the market afresh.
func Strong() Consistency { return Consistency{window: -1} }

// Config configures a Client.
type Config struct {
	// Tables is the catalog: market tables (from registration) and local
	// tables (Local=true). Required.
	Tables []*catalog.Table
	// Caller executes RESTful calls (HTTP connector or in-process market).
	// Required.
	Caller market.Caller
	// TuplesPerTransaction is the page size t per dataset name.
	TuplesPerTransaction map[string]int
	// DefaultTuplesPerTransaction applies to datasets missing above; 0 = 100.
	DefaultTuplesPerTransaction int
	// Consistency selects result-freshness vs. price (default Weak). Strong
	// is also the paper's "PayLess w/o SQR" ablation: no stored result is
	// ever reused.
	Consistency Consistency
	// MinimizeCalls optimises for the number of RESTful calls instead of
	// transactions — the behaviour of limited-access-pattern optimizers
	// ("Minimizing Calls" in the paper's evaluation). It never reuses
	// stored results, as under Strong consistency.
	MinimizeCalls bool
	// DisableTheorems turns off the search-space reductions of Theorems 1–3
	// (the "Disable All" ablation).
	DisableTheorems bool
	// DisableBoxPruning turns off Algorithm 1's pruning rules (Fig. 15).
	DisableBoxPruning bool
	// PlanCacheSize enables the parameterized plan-template cache when
	// positive: statements and their optimized plans are cached by statement
	// skeleton (an LRU of at most this many), and a repeated skeleton skips
	// parsing, name resolution and optimization. Cached plans are
	// invalidated when semantic-store coverage or statistics change, and
	// coverage-dependent access choices are re-verified per instantiation,
	// so cached plans never bill more than a re-optimized run would beyond
	// the shape-reuse assumption itself. 0 (the default) disables the
	// cache. Queries under a Window consistency reuse no plan (a moving
	// freshness horizon cannot be captured by epochs).
	PlanCacheSize int
	// Admitter is the client's one spend gate: Reserve before execution
	// (rejecting unbilled on error), Settle with the actual spend after.
	// The daemon's tenant layer uses it for per-tenant and global budgets
	// and billing attribution. nil admits everything.
	Admitter Admitter
	// FetchConcurrency bounds the number of in-flight market calls per plan
	// step (the engine's fetch worker pool). 0 picks min(8, GOMAXPROCS);
	// 1 executes calls serially. The bill is identical at any setting —
	// batches are planned up front and merged in plan order — only
	// wall-clock latency changes.
	FetchConcurrency int
	// CoalesceWindow bounds how long the call scheduler may park a
	// sub-transaction-size fetch waiting for mergeable company from other
	// open queries: adjacent cross-query remainder boxes are merged into one
	// call when ceil pricing makes the union no more expensive than the
	// parts. A fetch waits only while another query is open, so a lone
	// query never waits. With SQR, one query's own sibling calls are fused
	// before submission whatever the window. 0 (the default) means no
	// window — fetches dispatch immediately, and concurrent queries needing
	// the same box still share one wire call and one bill (single-flight).
	CoalesceWindow time.Duration
	// Tracer receives a per-query execution trace (spans for
	// parse/bind/optimize/execute plus one record per market call). nil
	// disables tracing; the disabled path costs a single nil check.
	// &CollectTracer{} traces every query and attaches the trace to
	// Result.Trace.
	Tracer Tracer
	// Calls bounds how hard one market call may fight for an answer: when
	// it races the next-ranked mirror (a hedge) and when a mirror that keeps
	// failing one dataset short-circuits with ErrCircuitOpen (a breaker).
	// The zero value never hedges and never opens a circuit: a hedge may
	// bill a second mirror, so it is opt-in. Breaker state is shared across the client's queries and
	// keyed endpoint×dataset, so one dead mirror never blacklists the
	// dataset at healthy mirrors.
	Calls CallPolicy
	// FederationEndpoints federates the client across N mirrors of the same
	// logical market: every call is routed to the endpoint minimizing a
	// price+latency+health cost model, fails over to the next-cheapest
	// healthy endpoint on error, and may hedge slow calls (see Calls). Each
	// endpoint needs a pre-built Caller or a BaseURL to build an HTTP
	// connector from; an empty Name becomes "endpoint-<i>". When set,
	// Config.Caller may be left nil; when empty, Config.Caller is the one
	// endpoint, named "market".
	FederationEndpoints []MarketEndpoint
	// StoreDir enables durable mode: the semantic store keeps a write-ahead
	// log and atomic snapshots in this directory, and Open recovers whatever
	// a previous process (however it died) had made durable. Empty (the
	// default) keeps the store memory-only. The log is folded into a
	// snapshot every 256 recorded calls and by CheckpointStore.
	StoreDir string
	// StoreSync selects when WAL appends are fsynced in durable mode:
	// StoreSyncPerCall (default, every paid call durable before its rows are
	// visible), StoreSyncBatched (every 8 appends), or StoreSyncOff (leave
	// flushing to the OS).
	StoreSync StoreSyncPolicy
	// store overrides the durable store's filesystem and checkpoint cadence;
	// the zero value is the real filesystem and the default cadence.
	// Unexported: only the crash-injection suites set it.
	store semstore.DurableOptions
}

// CallPolicy is how hard one market call may fight for an answer; see
// Config.Calls. HedgeAfter <= 0 never hedges; BreakAfter 0 never opens a
// circuit; Cooldown 0 is 5s.
type CallPolicy = federation.Policy

// MarketEndpoint configures one market mirror of a federated client.
type MarketEndpoint struct {
	// Name identifies the endpoint in traces, metrics, and health reports
	// (e.g. "us-east"). Empty names are auto-filled as "endpoint-<i>".
	Name string
	// BaseURL and AccountKey describe the mirror's HTTP market server; an
	// HTTP connector is built from them when Caller is nil.
	BaseURL    string
	AccountKey string
	// Caller is a pre-built transport for the endpoint (an in-process
	// market.AccountCaller in tests, or a custom connector). Takes
	// precedence over BaseURL.
	Caller market.Caller
	// PriceFactor scales list price at this mirror (<= 0 means 1.0);
	// LatencyHint seeds the cost model until observed latencies accumulate.
	PriceFactor float64
	LatencyHint time.Duration
}

// EndpointHealth is one federation endpoint's health, as reported by
// Client.FederationHealth and the daemon's /healthz.
type EndpointHealth = federation.EndpointHealth

// StoreSyncPolicy selects the durable store's WAL fsync cadence.
type StoreSyncPolicy = wal.SyncPolicy

// WAL fsync policies for Config.StoreSync.
const (
	// StoreSyncPerCall fsyncs every WAL append: a recorded call is durable
	// the moment Record returns. Strongest, slowest.
	StoreSyncPerCall = wal.SyncPerCall
	// StoreSyncBatched fsyncs every 8 appends: a crash loses at most the
	// current unsynced batch (already-billed data the WAL had not flushed —
	// a re-run re-buys only that remainder).
	StoreSyncBatched = wal.SyncBatched
	// StoreSyncOff never fsyncs from the client; the OS flushes when it
	// pleases. A process crash loses nothing; a power cut may lose the
	// unflushed tail.
	StoreSyncOff = wal.SyncOff
)

// StoreRecoveryInfo describes what durable-mode Open found and restored:
// the snapshot loaded, WAL records replayed or skipped, and whether a torn
// log tail was truncated.
type StoreRecoveryInfo = semstore.RecoveryInfo

// fetchConcurrency resolves the configured FetchConcurrency to an
// effective pool width.
func (cfg *Config) fetchConcurrency() int {
	if cfg.FetchConcurrency > 0 {
		return cfg.FetchConcurrency
	}
	c := runtime.GOMAXPROCS(0)
	if c > 8 {
		c = 8
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Observability types, re-exported from the internal obs package so users
// outside this module can name them.
type (
	// Trace is one query's execution trace: stage spans, per-market-call
	// records, and optimizer counters. Render it with Describe().
	Trace = obs.Trace
	// Span is one timed stage (parse, bind, optimize, execute) of a Trace.
	Span = obs.Span
	// CallRecord is one RESTful market call inside a Trace.
	CallRecord = obs.CallRecord
	// Tracer receives traces; implement it to ship traces anywhere, or use
	// CollectTracer to keep them on the Result.
	Tracer = obs.Tracer
	// CollectTracer is the simplest Tracer: it traces every query. The
	// finished trace is attached to Result.Trace.
	CollectTracer = obs.CollectTracer
	// MetricsSnapshot is a point-in-time copy of a Client's cumulative
	// counters and latency histograms (see Client.Metrics).
	MetricsSnapshot = obs.Snapshot
)

// Result is a query outcome.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows are the result tuples, rendered as strings.
	Rows [][]string
	// Report is what this query actually cost at the market.
	Report engine.Report
	// EstTransactions is the optimizer's price estimate for the chosen plan.
	EstTransactions int64
	// Counters reports the optimizer's search effort.
	Counters core.Counters
	// Plan renders the chosen plan.
	Plan string
	// PlanDetail is the step-by-step plan report; filled by
	// Explain(sql, Verbose()).
	PlanDetail string
	// OptimizeTime is how long optimization took.
	OptimizeTime time.Duration
	// Planner names where the plan came from: "dp" (the dynamic program)
	// or "cached" (instantiated from the plan-template cache).
	Planner string
	// Trace is the query's execution trace when a Tracer was configured
	// and chose to trace this query; nil otherwise.
	Trace *Trace
}

// Client is a PayLess instance serving one data-buyer organisation. It is
// safe for concurrent use: the paper's setting has one PayLess installation
// serving all end users of the buyer (Fig. 2).
//
// Every statement reaches the market the same way — engine → sched →
// federation → transport — and is admitted and booked by the same execute
// step, whichever method submitted it.
type Client struct {
	cat     *catalog.Catalog
	db      *storage.DB
	store   *semstore.Store
	stats   *stats.Store
	cfg     Config
	metrics *obs.Metrics
	// sched is the global market-call scheduler. It is shared by every
	// query of the client — that is what lets concurrent queries share and
	// merge their calls.
	sched *sched.Scheduler
	// fed routes each wire call to a market endpoint and owns the circuit
	// breakers and the routing terms; a client opened on one Config.Caller
	// is a federation of one endpoint.
	fed *federation.Caller
	// plans is the parameterized plan-template cache; nil when disabled.
	plans *core.PlanCache
	// admit reserves every plan's estimate before execution and settles
	// its actual spend after; nil admits everything.
	admit Admitter

	mu    sync.Mutex
	audit io.Writer

	// closemu guards the close state; inflight counts executing queries so
	// Close can drain them before closing the durable store.
	closemu  sync.Mutex
	closed   bool
	closeErr error
	inflight sync.WaitGroup
}

// Open builds a Client from a config, with Options applied on top.
func Open(cfg Config, opts ...Option) (*Client, error) {
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Caller == nil && len(cfg.FederationEndpoints) == 0 {
		return nil, fmt.Errorf("payless: Config.Caller is required")
	}
	if len(cfg.Tables) == 0 {
		return nil, fmt.Errorf("payless: Config.Tables is required")
	}
	cat := catalog.New()
	st := stats.New()
	for _, t := range cfg.Tables {
		if err := cat.Register(t); err != nil {
			return nil, err
		}
		if !t.Local {
			st.Register(t.Name, t.FullBox(), t.Cardinality)
		}
	}
	db := storage.NewDB()
	store := semstore.New(db)
	metrics := obs.NewMetrics()
	store.SetMetrics(metrics)
	if cfg.StoreDir != "" {
		// Recovery must see the metrics sink (replay counters) and the full
		// catalog (to re-derive row coordinates from logged rows).
		dopts := cfg.store
		dopts.Policy = cfg.StoreSync
		dopts.Lookup = func(table string) (*catalog.Table, bool) { return cat.Lookup(table) }
		_, err := store.EnableDurability(cfg.StoreDir, dopts)
		if err != nil {
			return nil, fmt.Errorf("payless: durable store: %w", err)
		}
	}
	endpoints := cfg.FederationEndpoints
	if len(endpoints) == 0 {
		// A single market is a federation of one endpoint.
		endpoints = []MarketEndpoint{{Name: "market", Caller: cfg.Caller}}
	}
	endpoints, err := resolveEndpoints(endpoints)
	if err != nil {
		return nil, err
	}
	// Tables pinned to some mirrors hand their lists to the federation once;
	// every other table is offered by the whole pool, whatever it becomes.
	pinned := make(map[string][]catalog.Mirror)
	for _, t := range cfg.Tables {
		if len(t.Mirrors) > 0 {
			pinned[t.Name] = t.Mirrors
		}
	}
	fed, err := federation.New(fedEndpoints(endpoints), federation.Config{
		Policy:  cfg.Calls,
		Metrics: metrics,
		Mirrors: pinned,
	})
	if err != nil {
		return nil, err
	}
	c := &Client{
		cat:     cat,
		db:      db,
		store:   store,
		stats:   st,
		cfg:     cfg,
		metrics: metrics,
		fed:     fed,
		admit:   cfg.Admitter,
	}
	pages := c.options()
	c.sched = sched.New(fed, sched.Config{
		Window:               cfg.CoalesceWindow,
		TuplesPerTransaction: pages.TuplesPer,
		Estimate:             st.Estimate,
		Store:                store,
		Metrics:              metrics,
	})
	if cfg.PlanCacheSize > 0 {
		c.plans = core.NewPlanCache(cfg.PlanCacheSize, metrics)
	}
	return c, nil
}

// Close drains in-flight queries, then flushes and closes the durable
// store's write-ahead log. Queries started after Close fail fast with
// ErrClosed; queries already executing finish normally (their paid calls
// are recorded before the log closes). Close is idempotent and safe to
// call concurrently — every call returns the first call's result after the
// drain completes.
func (c *Client) Close() error {
	c.closemu.Lock()
	defer c.closemu.Unlock()
	if !c.closed {
		c.closed = true
		c.inflight.Wait()
		c.closeErr = c.store.Close()
	}
	return c.closeErr
}

// begin registers one in-flight query, failing fast once Close has started.
// Every successful begin must be paired with c.done().
func (c *Client) begin() error {
	c.closemu.Lock()
	defer c.closemu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.inflight.Add(1)
	c.metrics.AddInflight(1)
	return nil
}

// done settles one in-flight query: the gauge drops before the WaitGroup so
// Close/Drain observers never see a negative level.
func (c *Client) done() {
	c.metrics.AddInflight(-1)
	c.inflight.Done()
}

// CheckpointStore folds the durable store's WAL into a snapshot (temp file,
// fsync, atomic rename, directory fsync) and truncates the log. A no-op for
// memory-only clients; automatic checkpoints run every 256 recorded calls
// regardless.
func (c *Client) CheckpointStore() error { return c.store.Checkpoint() }

// SyncStore forces any batched, unsynced WAL appends to disk — the manual
// durability barrier for StoreSyncBatched/StoreSyncOff clients.
func (c *Client) SyncStore() error { return c.store.SyncWAL() }

// StoreRecovery reports what durable-mode Open recovered (zero for
// memory-only clients): snapshot loaded, WAL records replayed, torn tail.
func (c *Client) StoreRecovery() StoreRecoveryInfo { return c.store.Recovery() }

// OpenHTTP registers with a market server over HTTP and builds a Client:
// it fetches the public catalog and per-dataset page sizes automatically.
// Extra local tables may be passed alongside. The fetched catalog, caller,
// and page sizes overwrite any Tables/Caller/TuplesPerTransaction an option
// may have set.
func OpenHTTP(baseURL, accountKey string, localTables []*catalog.Table, opts ...Option) (*Client, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	cli := connector.New(baseURL, accountKey)
	tables, tpt, err := fetchRegistration(cli)
	if err != nil {
		return nil, err
	}
	cfg.Tables = append(tables, localTables...)
	cfg.Caller = cli
	cfg.TuplesPerTransaction = tpt
	return Open(cfg)
}

// OpenFederated is OpenHTTP for a federated buyer: it builds one HTTP
// connector per endpoint (endpoints with a pre-built Caller keep it),
// bootstraps the catalog and page sizes from the first endpoint that
// answers — registration itself fails over — and opens a Client whose calls
// are routed by the federation layer. Tables are never modified: one with
// no Mirrors is offered by every endpoint at the endpoint's own terms, and
// one with Mirrors is pinned to the endpoints it names, at its own terms.
func OpenFederated(endpoints []MarketEndpoint, localTables []*catalog.Table, opts ...Option) (*Client, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("payless: OpenFederated requires at least one endpoint")
	}
	eps, err := resolveEndpoints(endpoints)
	if err != nil {
		return nil, err
	}
	// Registration: fetch the catalog and per-dataset page sizes from the
	// first endpoint that answers, so a down mirror cannot block startup.
	if len(cfg.Tables) == 0 {
		var lastErr error
		for _, ep := range eps {
			cli, ok := ep.Caller.(*connector.Client)
			if !ok {
				continue
			}
			tables, tpt, err := fetchRegistration(cli)
			if err != nil {
				lastErr = fmt.Errorf("endpoint %s: %w", ep.Name, err)
				continue
			}
			cfg.Tables = append(tables, localTables...)
			cfg.TuplesPerTransaction = tpt
			break
		}
		if len(cfg.Tables) == 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("no HTTP endpoint to register with (pass Tables via options for in-process callers)")
			}
			return nil, fmt.Errorf("payless: federated registration failed: %w", lastErr)
		}
	}
	cfg.FederationEndpoints = eps
	return Open(cfg)
}

// resolveEndpoints returns a copy of endpoints with default names
// ("endpoint-<i>") filled in and an HTTP connector built for every endpoint
// given only a BaseURL.
func resolveEndpoints(endpoints []MarketEndpoint) ([]MarketEndpoint, error) {
	eps := make([]MarketEndpoint, len(endpoints))
	copy(eps, endpoints)
	for i := range eps {
		if eps[i].Name == "" {
			eps[i].Name = fmt.Sprintf("endpoint-%d", i)
		}
		if eps[i].Caller == nil {
			if eps[i].BaseURL == "" {
				return nil, fmt.Errorf("payless: federation endpoint %q needs a BaseURL or a Caller", eps[i].Name)
			}
			eps[i].Caller = connector.New(eps[i].BaseURL, eps[i].AccountKey)
		}
	}
	return eps, nil
}

// fedEndpoints hands resolved endpoints to the federation layer.
func fedEndpoints(eps []MarketEndpoint) []federation.Endpoint {
	out := make([]federation.Endpoint, len(eps))
	for i, me := range eps {
		out[i] = federation.Endpoint{Name: me.Name, Caller: me.Caller, PriceFactor: me.PriceFactor, LatencyHint: me.LatencyHint}
	}
	return out
}

// fetchRegistration pulls one endpoint's catalog and page sizes.
func fetchRegistration(cli *connector.Client) ([]*catalog.Table, map[string]int, error) {
	tables, err := cli.Catalog()
	if err != nil {
		return nil, nil, err
	}
	tpt := make(map[string]int)
	for _, t := range tables {
		if _, ok := tpt[t.Dataset]; !ok {
			pt, err := cli.TuplesPerTransaction(t.Dataset)
			if err != nil {
				return nil, nil, err
			}
			tpt[t.Dataset] = pt
		}
	}
	return tables, tpt, nil
}

// FederationHealth reports each market endpoint's health — calls,
// failures, latency EWMA, open circuits — in configuration order. A client
// opened on one Config.Caller reports its one endpoint, named "market".
func (c *Client) FederationHealth() []EndpointHealth { return c.fed.Health() }

// LoadLocal loads rows into a local table so queries can join against it.
// The table must be registered with Local=true in the config.
func (c *Client) LoadLocal(name string, rows []value.Row) error {
	t, ok := c.cat.Lookup(name)
	if !ok || !t.Local {
		return fmt.Errorf("payless: %s is not a registered local table", name)
	}
	tbl, err := c.db.Ensure(t.Name, t.Schema)
	if err != nil {
		return err
	}
	_, err = tbl.Insert(rows)
	return err
}

// options derives the optimizer/engine options from the config.
func (c *Client) options() core.Options {
	opts := core.Options{
		DisableSQR:                  c.cfg.MinimizeCalls,
		DisableTheorems:             c.cfg.DisableTheorems,
		DisableBoxPruning:           c.cfg.DisableBoxPruning,
		DefaultTuplesPerTransaction: c.cfg.DefaultTuplesPerTransaction,
		TuplesPerTransaction:        c.cfg.TuplesPerTransaction,
	}
	if c.cfg.MinimizeCalls {
		opts.CostModel = core.CostCalls
	}
	switch {
	case c.cfg.Consistency.window < 0:
		opts.DisableSQR = true
	case c.cfg.Consistency.window > 0:
		opts.Since = time.Now().Add(-c.cfg.Consistency.window)
	}
	return opts
}

// beginTrace asks the configured Tracer (if any) for a trace of sql.
// Returns nil — the universal "not tracing" value — when no Tracer is set
// or the Tracer declines.
func (c *Client) beginTrace(sql string) *obs.Trace {
	if c.cfg.Tracer == nil {
		return nil
	}
	return c.cfg.Tracer.Begin(sql)
}

// finishTrace stamps tr's total duration and hands it to the Tracer.
// Safe on nil (untraced queries).
func (c *Client) finishTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Finish()
	c.cfg.Tracer.Finish(tr)
}

// compile runs the parse → bind → optimize preamble shared by Query,
// Explain and Prepare: each stage is recorded as a span on tr (which may be
// nil) and failures come back as typed *QueryError values. cache is the
// plan-template cache to use (the client's, a statement's private one, or
// nil for none); on a hit the optimize stage is skipped entirely: the
// cached plan is re-bound onto the freshly bound literals.
func (c *Client) compile(sql string, tr *obs.Trace, cache *core.PlanCache) (*core.Plan, core.Options, error) {
	bound, st, err := c.front(sql, tr, cache)
	if err != nil {
		return nil, core.Options{}, err
	}
	opts := c.options()
	// A moving consistency horizon (Window) makes coverage decisions
	// time-dependent in a way epochs cannot capture; those queries skip the
	// plan slot and always re-optimize.
	plans := st != nil && opts.Since.IsZero()
	if plans {
		if cp := cache.Plan(st, c.store.Epoch, c.stats.Version()); cp != nil {
			if plan, ok := cp.Instantiate(bound, c.store, &opts); ok {
				c.bookPlan(tr, plan)
				return plan, opts, nil
			}
		}
	}
	opt := core.Optimizer{Catalog: c.cat, Store: c.store, Stats: c.stats, Options: opts, Trace: tr}
	plan, err := opt.Optimize(bound)
	if err != nil {
		return nil, core.Options{}, stageErr(StageOptimize, err)
	}
	c.bookPlan(tr, plan)
	if plans {
		// The epochs snapshot is taken here, BEFORE execution: if this very
		// query buys data, its purchases bump the table epochs and the plan
		// correctly invalidates — the cached plan describes the store state
		// it was costed against, nothing newer.
		cache.SetPlan(st, plan, c.store.Epoch, c.stats.Version())
	}
	return plan, opts, nil
}

// front parses and binds sql, the front end every statement passes, and
// returns its statement-cache entry (nil without a cache). With a cache, a
// statement whose token skeleton is cached skips the parse and the name
// resolution: its literals are patched into the cached AST and bound
// against the cached shape, under the "parse" and "bind" spans. Any other
// statement is parsed and bound in full; if it binds, its skeleton's entry
// is filled.
func (c *Client) front(sql string, tr *obs.Trace, cache *core.PlanCache) (*core.BoundQuery, *core.Statement, error) {
	var skelBuf [512]byte
	var litBuf [16]sqlparse.Literal
	var skel []byte
	end := tr.StartSpan("parse")
	if cache != nil {
		s, lits, err := sqlparse.Scan(sql, skelBuf[:0], litBuf[:0])
		if err == nil {
			if st := cache.Lookup(s); st != nil {
				q, err := st.Template.Instance(lits)
				end(err)
				if err != nil {
					return nil, nil, stageErr(StageParse, err)
				}
				end = tr.StartSpan("bind")
				bound, err := st.Shape.Bind(q)
				end(err)
				if err != nil {
					return nil, nil, stageErr(StageBind, err)
				}
				return bound, st, nil
			}
			skel = s
		}
	}
	parsed, err := sqlparse.Parse(sql)
	end(err)
	if err != nil {
		return nil, nil, stageErr(StageParse, err)
	}
	end = tr.StartSpan("bind")
	shape, err := core.NewShape(parsed, c.cat)
	var bound *core.BoundQuery
	if err == nil {
		bound, err = shape.Bind(parsed)
	}
	end(err)
	if err != nil {
		return nil, nil, stageErr(StageBind, err)
	}
	var st *core.Statement
	if skel != nil {
		if tmpl, err := sqlparse.NewTemplate(sql); err == nil {
			st = cache.Put(skel, &core.Statement{Template: tmpl, Shape: shape})
		}
	}
	return bound, st, nil
}

// bookPlan records the plan a statement will run: its plan line, planner
// and search counters on tr (which may be nil), and the planner count in
// the metrics. Every compiled statement is booked here exactly once.
func (c *Client) bookPlan(tr *obs.Trace, plan *core.Plan) {
	if tr != nil {
		tr.SetPlanner(plan.Planner)
		tr.SetPlan(plan.String(), plan.EstTrans)
		tr.SetCounters(plan.Counters.PlansEvaluated, plan.Counters.BoxesEnumerated, plan.Counters.BoxesKept)
	}
	c.metrics.ObservePlanner(plan.Planner)
}

// Query parses, optimises and executes one SQL statement.
func (c *Client) Query(sql string) (*Result, error) {
	return c.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a caller-supplied context: cancelling ctx
// stops in-flight market fan-out. Results already paid for before the
// cancellation stay recorded in the semantic store, so a retry does not
// re-bill them.
func (c *Client) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return c.queryCached(ctx, sql, c.plans)
}

// queryCached is QueryContext with an explicit plan-template cache —
// prepared statements route through here with their own cache when the
// client-wide one is disabled.
func (c *Client) queryCached(ctx context.Context, sql string, cache *core.PlanCache) (*Result, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer c.done()
	// Open from parse on: a query still compiling may yet be company for
	// another query's fetch in the coalesce window.
	ctx, closeQuery := c.sched.Open(ctx)
	defer closeQuery()
	start := time.Now()
	tr := c.beginTrace(sql)
	plan, opts, err := c.compile(sql, tr, cache)
	if err != nil {
		return nil, c.failed(tr, err)
	}
	return c.execute(ctx, sql, plan, opts, tr, start)
}

// execute runs one compiled statement and books it: admission, the engine,
// settlement of the actual spend (a failed statement's included), metrics,
// audit and row rendering. Query and QueryBatch both end here, so every
// statement is admitted and attributed the same way. start is when the
// statement began (for the latency histogram); tr may be nil and is
// finished here.
func (c *Client) execute(ctx context.Context, sql string, plan *core.Plan, opts core.Options, tr *obs.Trace, start time.Time) (*Result, error) {
	est := plan.EstTrans
	if c.admit != nil {
		if err := c.admit.Reserve(ctx, est); err != nil {
			return nil, c.failed(tr, err)
		}
	}
	// Transport retries, federation failovers and hedges anywhere under this
	// statement draw on one fresh budget instead of multiplying per layer.
	ctx = overload.WithBudget(ctx, overload.NewRetryBudget(overload.DefaultBaseCredit))
	eng := engine.Engine{
		Store:       c.store,
		Stats:       c.stats,
		Sched:       c.sched,
		Options:     opts,
		Concurrency: c.cfg.fetchConcurrency(),
		Trace:       tr,
		Metrics:     c.metrics,
	}
	endExec := tr.StartSpan("execute")
	rel, report, err := eng.ExecuteContext(ctx, plan)
	endExec(err)
	// A failed statement may still have spent money before dying. That
	// spend is real — and not wasted: every salvaged call's rows were
	// recorded into the semantic store, so a re-run pays only the
	// remainder. It is settled and booked like any other, so the bill never
	// under-reports.
	if c.admit != nil {
		c.admit.Settle(ctx, est, report.Transactions)
	}
	if err != nil {
		if report != (engine.Report{}) {
			c.metrics.ObserveFailedQuerySpend(report.Calls, report.Records, report.Transactions, report.Price)
		}
		return nil, c.failed(tr, stageErr(StageExecute, err))
	}

	res := &Result{
		Columns:         rel.Schema.Names(),
		Report:          report,
		EstTransactions: plan.EstTrans,
		Counters:        plan.Counters,
		Plan:            plan.String(),
		OptimizeTime:    plan.Optimized,
		Planner:         plan.Planner,
	}
	res.Rows = renderRows(rel.Rows)
	c.metrics.ObserveQuery(time.Since(start), res.OptimizeTime,
		report.Calls, report.Records, report.Transactions, report.Price)
	c.finishTrace(tr)
	res.Trace = tr
	c.writeAudit(sql, res)
	return res, nil
}

// renderRows renders rows as strings in value.Value.String form, in a fixed
// number of allocations whatever the row count: one flat cell array the rows
// slice, and one text slab that numeric cells are substrings of. A string
// cell is the dictionary's own text. No rows render as nil.
func renderRows(rows []value.Row) [][]string {
	if len(rows) == 0 {
		return nil
	}
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	out := make([][]string, len(rows))
	cells := make([]string, n)
	// Bytes a strings.Builder has written never move or change, so a
	// substring taken before the slab grows stays valid after it.
	var slab strings.Builder
	slab.Grow(8 * n)
	var text [32]byte // the longest Int or Float text is 24 bytes
	for r, row := range rows {
		enc := cells[:len(row):len(row)]
		cells = cells[len(row):]
		for i, v := range row {
			switch v.K {
			case value.String:
				enc[i] = v.Str()
			case value.Null:
				enc[i] = "NULL"
			default:
				from := slab.Len()
				slab.Write(v.AppendText(text[:0]))
				enc[i] = slab.String()[from:]
			}
		}
		out[r] = enc
	}
	return out
}

// failed books a statement that returns err: the error counter and the
// finished trace.
func (c *Client) failed(tr *obs.Trace, err error) error {
	c.metrics.ObserveQueryError()
	c.finishTrace(tr)
	return err
}

// Planner labels reported in Result.Planner, Trace and Explain output.
const (
	// PlannerDP marks a plan produced by the dynamic program.
	PlannerDP = core.PlannerDP
	// PlannerCached marks a plan instantiated from the plan-template cache.
	PlannerCached = core.PlannerCached
)

// Metrics returns a snapshot of the client's cumulative counters and
// latency histograms: queries, market bill, retries, semantic-store reuse,
// plan-template cache activity (PlanCache*) and query/call/optimize latency
// distributions. Render it for scraping with WriteMetrics.
func (c *Client) Metrics() MetricsSnapshot { return c.metrics.Snapshot() }

// WriteMetrics renders the client's metrics in the Prometheus text
// exposition format under the "payless" namespace.
func (c *Client) WriteMetrics(w io.Writer) { c.metrics.WritePrometheus(w, "payless") }

// TotalSpend reports the cumulative market cost across all queries, failed
// ones included: the bill the metrics registry keeps.
func (c *Client) TotalSpend() engine.Report {
	s := c.metrics.Snapshot()
	return engine.Report{Calls: s.Calls, Records: s.Records, Transactions: s.Transactions, Price: s.Price}
}

// TableInfo summarises one catalog entry for introspection (the CLI's
// \tables command).
type TableInfo struct {
	Name string
	// Dataset is empty for local tables.
	Dataset string
	Local   bool
	// BindingPattern uses the paper's notation, e.g. "Weather(Country^f, ...)".
	BindingPattern string
	Cardinality    int64
	Columns        []string
}

// Tables lists every table the client can query.
func (c *Client) Tables() []TableInfo {
	var out []TableInfo
	for _, t := range c.cat.Tables() {
		out = append(out, TableInfo{
			Name:           t.Name,
			Dataset:        t.Dataset,
			Local:          t.Local,
			BindingPattern: t.BindingPattern(),
			Cardinality:    t.Cardinality,
			Columns:        t.Schema.Names(),
		})
	}
	return out
}
