// Package market implements the cloud data market PayLess buys from
// (paper §2): datasets of tables with owner-defined binding patterns,
// a conjunctive point/range access interface (no disjunction), and
// transaction-based pricing — a call returning r records costs
// p * ceil(r / t) where t is the dataset's tuples-per-transaction page size
// (§2.1, Eq. 1; Windows Azure Marketplace used t = 100).
//
// The market is the authoritative data owner. Buyers register an account
// key, export the public catalog (schemas, binding patterns, domains,
// cardinalities — the "basic statistics" of §2.1) and are billed per call on
// a per-account meter. The package offers both an in-process Caller and, in
// http.go, a RESTful net/http server speaking the same protocol as the
// connector package's HTTP client.
package market

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"payless/internal/catalog"
	"payless/internal/obs"
	"payless/internal/value"
)

// Result is the outcome of one RESTful call.
type Result struct {
	Schema value.Schema
	Rows   []value.Row
	// Records is len(Rows); kept explicit because it is the billed quantity.
	Records int
	// Transactions billed for this call: ceil(Records / t), minimum 1 for a
	// non-empty result, 0 for an empty one.
	Transactions int64
	// Price charged: Transactions * the dataset's price per transaction.
	Price float64
}

// Caller abstracts "something that executes RESTful calls": the in-process
// market, the HTTP connector, the global call scheduler, or a fault-injecting
// wrapper. Call is context-first — every transport honours cancellation and
// deadlines as far as it is able (the in-process market gates admission, the
// HTTP connector aborts in-flight requests) — so there is exactly one way to
// issue a call and exactly one place cancellation semantics live.
type Caller interface {
	Call(ctx context.Context, q catalog.AccessQuery) (Result, error)
}

// CallerFunc adapts an ordinary function to the Caller interface, the
// smallest way to build one-off callers in tests and wrappers.
type CallerFunc func(ctx context.Context, q catalog.AccessQuery) (Result, error)

// Call implements Caller.
func (f CallerFunc) Call(ctx context.Context, q catalog.AccessQuery) (Result, error) {
	return f(ctx, q)
}

// Do dispatches one call through c. A nil or already-cancelled context fails
// before any money is spent. Kept as a convenience for call sites that may
// hold a nil context; everything else should call c.Call directly.
func Do(ctx context.Context, c Caller, q catalog.AccessQuery) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return c.Call(ctx, q)
}

// Meter accumulates a buyer account's spending.
type Meter struct {
	Calls        int64
	Records      int64
	Transactions int64
	Price        float64
}

// Dataset groups tables sold under one price plan. TuplesPerTransaction and
// PricePerTransaction are immutable after AddDataset; the tables map is
// guarded by mu so owner-side publishes never race concurrent buyer scans.
type Dataset struct {
	Name string
	// TuplesPerTransaction is the page size t of Eq. 1.
	TuplesPerTransaction int
	// PricePerTransaction is the price p of Eq. 1.
	PricePerTransaction float64
	mu                  sync.RWMutex
	tables              map[string]*marketTable
}

// bill is the seller's meter for one call returning rows: Eq. 1's
// ⌈records/t⌉ transactions at p each. It is kept apart from the buyer's
// estimate (rewrite.Price) on purpose: it is the ground truth the spend
// oracles check the buyer against.
func (ds *Dataset) bill(schema value.Schema, rows []value.Row) Result {
	trans := int64((len(rows) + ds.TuplesPerTransaction - 1) / ds.TuplesPerTransaction)
	return Result{
		Schema:       schema,
		Rows:         rows,
		Records:      len(rows),
		Transactions: trans,
		Price:        float64(trans) * ds.PricePerTransaction,
	}
}

type marketTable struct {
	// mu guards meta and rows: shared by concurrent scans, exclusive for
	// owner-side appends.
	mu   sync.RWMutex
	meta *catalog.Table
	rows []value.Row
	// eqIndex[attrName][valueKey] lists row indexes; built lazily for
	// attributes used in equality predicates (bind joins hit these hard).
	// idxMu guards it separately so concurrent readers can share mu while
	// one of them builds the index. Lock order: mu before idxMu.
	idxMu   sync.Mutex
	eqIndex map[string]map[string][]int
}

// account is one registered buyer: its spending meter and the replay
// ledger backing idempotent calls. Both are guarded by the market's accMu.
type account struct {
	meter  Meter
	ledger *replayLedger
}

// Market hosts datasets and bills registered accounts.
type Market struct {
	// mu guards the datasets map; accMu guards the accounts map and every
	// meter and replay ledger behind it, so billing increments never contend
	// with catalog lookups from parallel callers.
	mu       sync.RWMutex
	datasets map[string]*Dataset
	accMu    sync.RWMutex
	accounts map[string]*account
	// ledgerCap bounds each account's replay ledger (entries, FIFO eviction);
	// applied to accounts registered after it is set.
	ledgerCap int
	// metrics aggregates seller-side observability across all accounts:
	// calls served, records, transactions billed and scan latency. It is
	// internally locked and exposed at GET /metrics by the HTTP server.
	metrics *obs.Metrics
}

// New returns an empty market.
func New() *Market {
	return &Market{
		datasets:  make(map[string]*Dataset),
		accounts:  make(map[string]*account),
		ledgerCap: DefaultLedgerCap,
		metrics:   obs.NewMetrics(),
	}
}

// Metrics returns a snapshot of the seller-side counters: every billed
// call across every account since the market started.
func (m *Market) Metrics() obs.Snapshot { return m.metrics.Snapshot() }

// AddDataset creates a dataset with the given pricing. t must be positive.
func (m *Market) AddDataset(name string, tuplesPerTransaction int, pricePerTransaction float64) (*Dataset, error) {
	if tuplesPerTransaction <= 0 {
		return nil, fmt.Errorf("dataset %s: tuples per transaction must be positive", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.datasets[name]; dup {
		return nil, fmt.Errorf("dataset %s already exists", name)
	}
	ds := &Dataset{
		Name:                 name,
		TuplesPerTransaction: tuplesPerTransaction,
		PricePerTransaction:  pricePerTransaction,
		tables:               make(map[string]*marketTable),
	}
	m.datasets[name] = ds
	return ds, nil
}

// AddTable publishes a table in the dataset. The catalog metadata is cloned
// with the authoritative cardinality and dataset name filled in.
func (ds *Dataset) AddTable(meta *catalog.Table, rows []value.Row) error {
	for i, r := range rows {
		if len(r) != len(meta.Schema) {
			return fmt.Errorf("table %s row %d: width %d, want %d", meta.Name, i, len(r), len(meta.Schema))
		}
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if _, dup := ds.tables[keyOf(meta.Name)]; dup {
		return fmt.Errorf("table %s already exists in dataset %s", meta.Name, ds.Name)
	}
	mcopy := *meta
	mcopy.Dataset = ds.Name
	mcopy.Cardinality = int64(len(rows))
	mcopy.Local = false
	mcopy.PricePerTransaction = ds.PricePerTransaction
	ds.tables[keyOf(meta.Name)] = &marketTable{meta: &mcopy, rows: rows, eqIndex: make(map[string]map[string][]int)}
	return nil
}

// Append adds rows to a published table. Datasets in a data market are
// append-only (§2.1: "New data could be added periodically, e.g. every
// month"); the table's advertised cardinality grows and numeric attribute
// domains widen to cover the new rows. Buyers holding an older catalog
// snapshot keep working — the freshness of their answers is governed by
// their consistency level (§4.3).
func (ds *Dataset) Append(table string, rows []value.Row) error {
	ds.mu.RLock()
	mt, ok := ds.tables[keyOf(table)]
	ds.mu.RUnlock()
	if !ok {
		return fmt.Errorf("unknown table %s in dataset %s", table, ds.Name)
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	for i, r := range rows {
		if len(r) != len(mt.meta.Schema) {
			return fmt.Errorf("table %s append row %d: width %d, want %d", table, i, len(r), len(mt.meta.Schema))
		}
	}
	for _, r := range rows {
		for i := range mt.meta.Attrs {
			a := &mt.meta.Attrs[i]
			if a.Binding == catalog.Output || a.Class != catalog.NumericAttr {
				continue
			}
			v := r[i].AsInt()
			if v < a.Min {
				a.Min = v
			}
			if v > a.Max {
				a.Max = v
			}
		}
	}
	mt.rows = append(mt.rows, rows...)
	mt.meta.Cardinality = int64(len(mt.rows))
	// Equality indexes are rebuilt lazily on next use. Readers waiting on
	// mt.mu cannot observe the stale index: it is cleared before the write
	// lock is released, and index reads require at least mt.mu.RLock.
	mt.idxMu.Lock()
	mt.eqIndex = make(map[string]map[string][]int)
	mt.idxMu.Unlock()
	return nil
}

// cloneMeta deep-copies a table's public metadata so snapshots handed to
// buyers never alias the attribute structs that Append mutates in place
// (domain mins/maxes widen as rows arrive).
func cloneMeta(t *catalog.Table) *catalog.Table {
	c := *t
	c.Schema = t.Schema.Clone()
	c.Attrs = append([]catalog.Attribute(nil), t.Attrs...)
	return &c
}

func keyOf(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// table returns the dataset's table under the dataset lock.
func (ds *Dataset) table(name string) (*marketTable, bool) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	t, ok := ds.tables[keyOf(name)]
	return t, ok
}

// Dataset returns the named dataset for owner-side operations (appends).
func (m *Market) Dataset(name string) (*Dataset, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ds, ok := m.datasets[name]
	return ds, ok
}

// SetReplayLedgerCap bounds the replay ledgers of accounts registered from
// now on; n <= 0 restores the default.
func (m *Market) SetReplayLedgerCap(n int) {
	if n <= 0 {
		n = DefaultLedgerCap
	}
	m.accMu.Lock()
	defer m.accMu.Unlock()
	m.ledgerCap = n
}

// RegisterAccount creates (or resets) a buyer account identified by key.
func (m *Market) RegisterAccount(key string) {
	m.accMu.Lock()
	defer m.accMu.Unlock()
	m.accounts[key] = &account{ledger: newReplayLedger(m.ledgerCap)}
}

// MeterOf returns a snapshot of the account's spending.
func (m *Market) MeterOf(key string) (Meter, bool) {
	m.accMu.RLock()
	defer m.accMu.RUnlock()
	acc, ok := m.accounts[key]
	if !ok {
		return Meter{}, false
	}
	return acc.meter, true
}

// lookup finds a table across datasets. Dataset may be empty, in which case
// the table name must be unique across the market.
func (m *Market) lookup(dataset, table string) (*Dataset, *marketTable, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if dataset != "" {
		ds, ok := m.datasets[dataset]
		if !ok {
			return nil, nil, fmt.Errorf("unknown dataset %s", dataset)
		}
		t, ok := ds.table(table)
		if !ok {
			return nil, nil, fmt.Errorf("unknown table %s in dataset %s", table, dataset)
		}
		return ds, t, nil
	}
	var foundDS *Dataset
	var foundT *marketTable
	for _, ds := range m.datasets {
		if t, ok := ds.table(table); ok {
			if foundT != nil {
				return nil, nil, fmt.Errorf("table %s is ambiguous across datasets", table)
			}
			foundDS, foundT = ds, t
		}
	}
	if foundT == nil {
		return nil, nil, fmt.Errorf("unknown table %s", table)
	}
	return foundDS, foundT, nil
}

// ExportCatalog returns the public metadata of every table in the market —
// what a buyer learns when registering (paper Fig. 2). Tables are sorted by
// dataset then name for determinism.
func (m *Market) ExportCatalog() []*catalog.Table {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*catalog.Table
	for _, ds := range m.datasets {
		ds.mu.RLock()
		for _, t := range ds.tables {
			t.mu.RLock()
			c := cloneMeta(t.meta)
			t.mu.RUnlock()
			out = append(out, c)
		}
		ds.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Execute runs one RESTful call on behalf of the account, enforcing the
// table's binding pattern and billing the meter. This is the market-side
// entry point shared by the in-process caller and the HTTP server.
//
// When the call carries a CallID, billing is at-most-once by construction:
// the result of the first billed execution is remembered in the account's
// bounded replay ledger, and any retry of the same ID replays it without
// touching the meter. A response lost after billing — the expensive failure
// mode — therefore costs the buyer nothing extra on retry.
func (m *Market) Execute(accountKey string, q catalog.AccessQuery) (Result, error) {
	res, _, err := m.execute(accountKey, q)
	return res, err
}

// execute is Execute plus a flag reporting whether the result was replayed
// from the ledger instead of freshly billed.
func (m *Market) execute(accountKey string, q catalog.AccessQuery) (Result, bool, error) {
	start := time.Now()
	m.accMu.RLock()
	acc := m.accounts[accountKey]
	var prev Result
	replayed := false
	if acc != nil && q.CallID != "" {
		prev, replayed = acc.ledger.get(q.CallID)
	}
	m.accMu.RUnlock()
	if acc == nil {
		return Result{}, false, fmt.Errorf("unknown account key %q", accountKey)
	}
	if replayed {
		m.metrics.ObserveReplayedCall()
		return prev, true, nil
	}
	ds, mt, err := m.lookup(q.Dataset, q.Table)
	if err != nil {
		return Result{}, false, err
	}
	// The shared per-table lock lets parallel buyer calls scan concurrently
	// while still excluding owner-side appends mid-scan.
	mt.mu.RLock()
	if err := catalog.ValidateBinding(mt.meta, q); err != nil {
		mt.mu.RUnlock()
		return Result{}, false, err
	}
	res := ds.bill(mt.meta.Schema.Clone(), mt.scan(q))
	mt.mu.RUnlock()

	// Re-resolve the account under the write lock: billing must hit the
	// account's current meter even if it was re-registered mid-call, and the
	// increment block is atomic so no concurrent call can interleave a
	// partial update (Calls bumped, Transactions not yet). The ledger is
	// re-checked under the same lock so two concurrent duplicates of one
	// CallID can never both bill.
	m.accMu.Lock()
	if acc := m.accounts[accountKey]; acc != nil {
		if q.CallID != "" {
			if prev, ok := acc.ledger.get(q.CallID); ok {
				m.accMu.Unlock()
				m.metrics.ObserveReplayedCall()
				return prev, true, nil
			}
		}
		acc.meter.Calls++
		acc.meter.Records += int64(res.Records)
		acc.meter.Transactions += res.Transactions
		acc.meter.Price += res.Price
		if q.CallID != "" {
			acc.ledger.put(q.CallID, res)
		}
	}
	m.accMu.Unlock()
	m.metrics.ObserveCall(time.Since(start), int64(res.Records), res.Transactions, res.Price)

	return res, false, nil
}

// replayOrUnbilled serves the call from the replay ledger when its CallID is
// known there, falling back to an unbilled re-scan. The HTTP transport uses
// it for follow-up pages: serving pages out of the billed snapshot keeps a
// paginated result internally consistent even if the table is appended to
// between pages.
func (m *Market) replayOrUnbilled(accountKey string, q catalog.AccessQuery) (Result, error) {
	if q.CallID != "" {
		m.accMu.RLock()
		acc := m.accounts[accountKey]
		if acc != nil {
			if prev, ok := acc.ledger.get(q.CallID); ok {
				m.accMu.RUnlock()
				return prev, nil
			}
		}
		m.accMu.RUnlock()
	}
	return m.executeUnbilled(accountKey, q)
}

// scan returns the rows matching the call, using a lazily built equality
// index when the call has an equality predicate. The caller holds the table
// lock (shared suffices).
func (mt *marketTable) scan(q catalog.AccessQuery) []value.Row {
	// Pick the first equality predicate as the index key.
	var idxAttr string
	var idxVal value.Value
	for _, p := range q.Preds {
		if p.Eq != nil {
			idxAttr = p.Attr
			idxVal = *p.Eq
			break
		}
	}
	var candidates []int
	if idxAttr != "" {
		candidates = mt.indexLookup(idxAttr, idxVal)
	}
	f := catalog.CompileFilter(mt.meta, q)
	var out []value.Row
	if candidates != nil {
		for _, i := range candidates {
			if f.Matches(mt.rows[i]) {
				out = append(out, mt.rows[i])
			}
		}
		return out
	}
	for _, r := range mt.rows {
		if f.Matches(r) {
			out = append(out, r)
		}
	}
	return out
}

// indexLookup returns candidate row indexes for attr == v, building the
// index on first use. It returns nil (not empty) when the attribute cannot
// be indexed, which signals "fall back to a full scan". The caller holds the
// table lock (shared suffices: idxMu serialises concurrent index builds, and
// rows cannot change while any table lock is held).
func (mt *marketTable) indexLookup(attr string, v value.Value) []int {
	col := mt.meta.Schema.IndexOf(attr)
	if col < 0 {
		return nil
	}
	key := keyOf(attr)
	mt.idxMu.Lock()
	defer mt.idxMu.Unlock()
	idx, ok := mt.eqIndex[key]
	if !ok {
		idx = make(map[string][]int)
		for i, r := range mt.rows {
			k := r[col].String()
			idx[k] = append(idx[k], i)
		}
		mt.eqIndex[key] = idx
	}
	hits := idx[v.String()]
	if hits == nil {
		hits = []int{}
	}
	return hits
}

// executeUnbilled re-runs a call's scan without touching the meter; the
// HTTP transport uses it to serve follow-up pages of an already-billed
// result.
func (m *Market) executeUnbilled(accountKey string, q catalog.AccessQuery) (Result, error) {
	m.accMu.RLock()
	_, authed := m.accounts[accountKey]
	m.accMu.RUnlock()
	if !authed {
		return Result{}, fmt.Errorf("unknown account key %q", accountKey)
	}
	ds, mt, err := m.lookup(q.Dataset, q.Table)
	if err != nil {
		return Result{}, err
	}
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	if err := catalog.ValidateBinding(mt.meta, q); err != nil {
		return Result{}, err
	}
	return ds.bill(mt.meta.Schema.Clone(), mt.scan(q)), nil
}

// AccountCaller binds a Market and an account key into a Caller — the
// in-process transport used by tests and benchmarks. It passes the query's
// CallID through unchanged: a retry wrapper that wants at-most-once billing
// assigns the ID once (EnsureCallID) before its retry loop, exactly as the
// HTTP connector does.
type AccountCaller struct {
	Market *Market
	Key    string
}

// Call implements Caller. The in-process transport has no in-flight work to
// interrupt, so the context only gates call admission.
func (a AccountCaller) Call(ctx context.Context, q catalog.AccessQuery) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return a.Market.Execute(a.Key, q)
}
