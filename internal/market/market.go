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
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"payless/internal/catalog"
	"payless/internal/obs"
	"payless/internal/region"
	"payless/internal/rowidx"
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

// marketTable is one published table and its row index. A call is a box
// in coordinate space, one interval per queryable attribute, and the index
// (package rowidx) narrows the rows to the box's candidates, which the
// call's compiled filter then decides, so the index changes no answer:
//   - a numeric attribute's coordinate is the Value.AsInt() the filter
//     tests, held below MaxInt64 so an inclusive Hi is the half-open Hi+1;
//   - a categorical attribute's is the value's domain index, and every value
//     without one (Null, or a row appended outside the domain) shares
//     coordinate −1, which an equality on any such value selects.
//
// The index is built, radix-sorted, by the first call with a predicate, so
// a table only ever bought whole is never indexed; once built, Append pushes
// one run per dimension, so it is never rebuilt.
type marketTable struct {
	// mu guards meta, rows and the index: shared by concurrent calls,
	// exclusive for owner-side appends.
	mu   sync.RWMutex
	meta *catalog.Table
	rows []value.Row
	// dims[k] indexes the rows on the k-th queryable attribute, schema
	// column cols[k], once built (nil before). codes[k] maps a categorical
	// attribute's domain values, under value.NumericKey, to their indexes;
	// it is nil on a numeric one.
	built sync.Once
	dims  []rowidx.Dim
	cols  []int
	codes []map[value.Value]int64
}

// newMarketTable publishes rows under meta, to be indexed on its queryable
// attributes.
func newMarketTable(meta *catalog.Table, rows []value.Row) *marketTable {
	mt := &marketTable{meta: meta, rows: rows}
	for col, a := range meta.Attrs {
		if a.Binding == catalog.Output {
			continue
		}
		var codes map[value.Value]int64
		if a.Class == catalog.CategoricalAttr {
			codes = make(map[value.Value]int64, len(a.Domain))
			for i := len(a.Domain) - 1; i >= 0; i-- { // the first of equal values wins, as in Attribute.Coord
				codes[value.NumericKey.Canonical(a.Domain[i])] = int64(i)
			}
		}
		mt.cols, mt.codes = append(mt.cols, col), append(mt.codes, codes)
	}
	return mt
}

// coord is v's coordinate on dimension k.
func (mt *marketTable) coord(k int, v value.Value) int64 {
	if codes := mt.codes[k]; codes != nil {
		if c, ok := codes[value.NumericKey.Canonical(v)]; ok {
			return c
		}
		return -1
	}
	return min(v.AsInt(), math.MaxInt64-1)
}

// index adds the rows from id first on to every dimension, as one run.
func (mt *marketTable) index(first int) {
	for _, r := range mt.rows[first:] {
		for k := range mt.dims {
			mt.dims[k].Col.Append(mt.coord(k, r[mt.cols[k]]))
		}
	}
	for k := range mt.dims {
		mt.dims[k].Add(first, len(mt.rows)-first)
	}
}

// box appends to ivs the call's coordinate box: [Lo, Hi] is [Lo, Hi+1), an
// equality on c is [c, c+1), and predicates on one attribute intersect. An
// equality on a number beyond ±2^53, where Value.Equal may hold between an
// Int and a Float of different AsInt, restricts nothing.
func (mt *marketTable) box(q catalog.AccessQuery, ivs []region.Interval) region.Box {
	for range mt.cols {
		ivs = append(ivs, region.Interval{Lo: math.MinInt64, Hi: math.MaxInt64})
	}
	for _, p := range q.Preds {
		k, _ := mt.meta.Dim(p.Attr)
		if c := p.Eq; k < 0 || c != nil && (c.AsInt() <= -1<<53 || c.AsInt() >= 1<<53) {
			continue
		}
		iv := &ivs[k]
		if p.Eq != nil {
			c := mt.coord(k, *p.Eq)
			iv.Lo, iv.Hi = max(iv.Lo, c), min(iv.Hi, c+1)
			continue
		}
		if p.Lo != nil {
			iv.Lo = max(iv.Lo, min(*p.Lo, math.MaxInt64-1))
		}
		if p.Hi != nil {
			iv.Hi = min(iv.Hi, min(*p.Hi, math.MaxInt64-1)+1)
		}
	}
	return region.Box{Dims: ivs}
}

// idBufs recycles read's candidate ids, up to maxPooledIDs of them.
var idBufs = sync.Pool{New: func() any { return new([]int32) }}

const maxPooledIDs = 1 << 16

// read returns the rows the call selects, in table order, and how many rows
// its filter tested. A call without predicates returns the rows themselves,
// capped at their length, untested. Any other tests the index's candidates,
// in ascending id order, into an output sized once. The caller holds the
// table lock (shared suffices).
func (mt *marketTable) read(q catalog.AccessQuery) (rows []value.Row, examined int) {
	n := len(mt.rows)
	if len(q.Preds) == 0 {
		return mt.rows[:n:n], 0
	}
	mt.built.Do(func() {
		mt.dims = make([]rowidx.Dim, len(mt.cols))
		mt.index(0)
	})
	var ivs [8]region.Interval
	buf := idBufs.Get().(*[]int32)
	sel := rowidx.Select(mt.dims, n, mt.box(q, ivs[:0]), buf)
	ids := sel.AppendTo((*buf)[:0])
	sel.Release()
	f := catalog.CompileFilter(mt.meta, q)
	rows = make([]value.Row, 0, len(ids))
	for _, id := range ids {
		if r := mt.rows[id]; f.Matches(r) {
			rows = append(rows, r)
		}
	}
	if *buf = ids[:0]; cap(ids) <= maxPooledIDs {
		idBufs.Put(buf)
	}
	return rows, len(ids)
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
	mcopy := cloneMeta(meta) // Append widens its domains
	mcopy.Dataset, mcopy.Cardinality, mcopy.Local = ds.Name, int64(len(rows)), false
	mcopy.PricePerTransaction = ds.PricePerTransaction
	ds.tables[keyOf(meta.Name)] = newMarketTable(mcopy, rows)
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
			a.Min, a.Max = min(a.Min, r[i].AsInt()), max(a.Max, r[i].AsInt())
		}
	}
	first := len(mt.rows)
	mt.rows = append(mt.rows, rows...)
	mt.meta.Cardinality = int64(len(mt.rows))
	mt.index(first) // no dimension before the index is built
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

// keyOf is a table's key in its dataset: names match case-insensitively.
func keyOf(s string) string { return strings.ToLower(s) }

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
	start := time.Now()
	if prev, ok, err := m.replay(accountKey, q); err != nil || ok {
		if ok {
			m.metrics.ObserveReplayedCall()
		}
		return prev, err
	}
	res, examined, err := m.serve(q)
	if err != nil {
		return Result{}, err
	}

	// Re-resolve the account under the write lock: billing must hit the
	// account's current meter even if it was re-registered mid-call, and the
	// increment block is atomic so no concurrent call can interleave a
	// partial update (Calls bumped, Transactions not yet). The ledger is
	// re-checked under the same lock so two concurrent duplicates of one
	// CallID can never both bill.
	m.accMu.Lock()
	if acc := m.accounts[accountKey]; acc != nil {
		if prev, ok := acc.ledger.get(q.CallID); ok {
			m.accMu.Unlock()
			m.metrics.ObserveReplayedCall()
			return prev, nil
		}
		acc.meter.Calls++
		acc.meter.Records += int64(res.Records)
		acc.meter.Transactions += res.Transactions
		acc.meter.Price += res.Price
		acc.ledger.put(q.CallID, res) // a call without an ID is not remembered
	}
	m.accMu.Unlock()
	m.metrics.ObserveCall(time.Since(start), int64(res.Records), res.Transactions, res.Price, int64(examined))
	return res, nil
}

// replay authenticates the account and returns the billed result of the
// call's ID when the account's replay ledger holds it.
func (m *Market) replay(accountKey string, q catalog.AccessQuery) (prev Result, ok bool, err error) {
	m.accMu.RLock()
	defer m.accMu.RUnlock()
	acc := m.accounts[accountKey]
	if acc == nil {
		return Result{}, false, fmt.Errorf("unknown account key %q", accountKey)
	}
	prev, ok = acc.ledger.get(q.CallID)
	return prev, ok, nil
}

// serve answers the call without touching any meter: its rows, their bill
// and how many rows the filter tested. The shared per-table lock lets
// parallel calls read concurrently while excluding owner-side appends.
func (m *Market) serve(q catalog.AccessQuery) (Result, int, error) {
	ds, mt, err := m.lookup(q.Dataset, q.Table)
	if err != nil {
		return Result{}, 0, err
	}
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	if err := catalog.ValidateBinding(mt.meta, q); err != nil {
		return Result{}, 0, err
	}
	rows, examined := mt.read(q)
	return ds.bill(mt.meta.Schema.Clone(), rows), examined, nil
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
