// Package storage implements the buyer-side local DBMS that PayLess offloads
// query processing to (paper §3, step 6–8). It is a small in-memory engine:
// tables with row-level deduplication (the semantic store never evicts and
// never stores a tuple twice), predicate scans, hash equi-joins, cartesian
// products, grouped aggregation and ordering — everything the paper's query
// class needs once the market data has been materialised locally.
package storage

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"payless/internal/value"
)

// DB is a named collection of stored tables. It is safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Create adds an empty table with the given schema. Creating an existing
// table is an error.
func (db *DB) Create(name string, schema value.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("table %s already exists", name)
	}
	t := newTable(name, schema)
	db.tables[key] = t
	return t, nil
}

// Ensure returns the named table, creating it if needed. An existing table
// must have the same number of columns.
func (db *DB) Ensure(name string, schema value.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if t, ok := db.tables[key]; ok {
		if len(t.schema) != len(schema) {
			return nil, fmt.Errorf("table %s exists with %d columns, want %d", name, len(t.schema), len(schema))
		}
		return t, nil
	}
	t := newTable(name, schema)
	db.tables[key] = t
	return t, nil
}

// Lookup returns the named table.
func (db *DB) Lookup(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Drop removes the named table.
func (db *DB) Drop(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.tables, strings.ToLower(name))
}

// Table is a stored relation with whole-row deduplication.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema value.Schema
	rows   []value.Row
	index  *value.KeyTable // over rows, under value.ExactKey
}

func newTable(name string, schema value.Schema) *Table {
	return &Table{name: name, schema: schema.Clone(), index: value.NewKeyTable(value.ExactKey, nil, 0)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() value.Schema { return t.schema }

// Len returns the number of stored rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends rows, silently skipping exact duplicates, and returns the
// number of rows actually added. Rows of the wrong width are rejected.
func (t *Table) Insert(rows []value.Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	added := 0
	for _, r := range rows {
		if len(r) != len(t.schema) {
			return added, fmt.Errorf("table %s: row width %d, want %d", t.name, len(r), len(t.schema))
		}
		if t.index.Insert(t.rows, r, len(t.rows)) >= 0 {
			continue
		}
		t.rows = append(t.rows, r.Clone())
		added++
	}
	return added, nil
}

// Relation snapshots the table as an immutable relation: rows are only ever
// appended, so it shares the row list, capped at its current length.
func (t *Table) Relation() Relation {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.rows)
	return Relation{Schema: t.schema.Clone(), Rows: t.rows[:n:n]}
}

// Relation is an immutable materialised result: a schema plus rows.
type Relation struct {
	Schema value.Schema
	Rows   []value.Row
}

// Len returns the relation cardinality.
func (r Relation) Len() int { return len(r.Rows) }

// Select returns the rows satisfying pred.
func (r Relation) Select(pred func(value.Row) bool) Relation {
	out := Relation{Schema: r.Schema}
	for _, row := range r.Rows {
		if pred(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Project returns the relation restricted to the given column indexes.
func (r Relation) Project(idx []int) Relation {
	out := Relation{Schema: projectSchema(r.Schema, idx), Rows: make([]value.Row, len(r.Rows))}
	w := len(idx)
	vals := make([]value.Value, len(r.Rows)*w)
	for i, row := range r.Rows {
		p := vals[i*w : (i+1)*w : (i+1)*w]
		for k, j := range idx {
			p[k] = row[j]
		}
		out.Rows[i] = p
	}
	return out
}

func projectSchema(s value.Schema, idx []int) value.Schema {
	out := make(value.Schema, len(idx))
	for i, j := range idx {
		out[i] = s[j]
	}
	return out
}

// Distinct removes duplicate rows (value.ExactKey), preserving first-seen
// order.
func (r Relation) Distinct() Relation {
	seen := value.NewKeyTable(value.ExactKey, nil, 0)
	out := Relation{Schema: r.Schema}
	for i, row := range r.Rows {
		if seen.Insert(r.Rows, row, i) < 0 {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// DistinctValues returns the distinct values (value.ExactKey) of one column
// in first-seen order — used to collect bind-join binding values.
func (r Relation) DistinctValues(col int) []value.Value {
	seen := value.NewKeyTable(value.ExactKey, []int{col}, 0)
	var out []value.Value
	for i, row := range r.Rows {
		if seen.Insert(r.Rows, row, i) < 0 {
			out = append(out, row[col])
		}
	}
	return out
}

// EachJoined calls emit(l, r) for every row l of left and row r of right
// whose key columns agree (left[lc[i]] meets right[rc[i]] for all i under
// value.NumericKey). The hash table is built over the smaller input (right on
// a tie) and the other one probes it: pairs come in probe-row order, each
// probe row's matches in build-row order. With no key columns, or lists of
// different lengths, every pair is emitted, left-major.
func EachJoined(left, right Relation, lc, rc []int, emit func(l, r value.Row)) {
	m := match(left, right, lc, rc)
	m.each(emit)
	m.release()
}

// matches are EachJoined's pairs: the i-th probe row with a match,
// probe[hit[i]], meets build rows first[i], next[first[i]] and so on, until
// -1. The three lists are carved from links, which release gives back.
type matches struct {
	build, probe     []value.Row
	hit, first, next []int32
	links            *[]int32
	swapped          bool // the build side is the left input
}

// links recycles matches' lists: they die with their join, and a query joins
// over and over.
var links = sync.Pool{New: func() any { return new([]int32) }}

func (m matches) release() { links.Put(m.links) }

func match(left, right Relation, lc, rc []int) matches {
	m := matches{build: right.Rows, probe: left.Rows}
	bc, pc := rc, lc
	if len(lc) != len(rc) || len(lc) == 0 { // the empty key: every row meets every row
		bc, pc = []int{}, []int{}
	} else if m.swapped = len(left.Rows) < len(right.Rows); m.swapped {
		m.build, m.probe, bc, pc = left.Rows, right.Rows, lc, rc
	}
	// Filled from the back, the table ends up holding each key's first
	// build row, and next[i] is the build row after i with its key.
	lo, span, dense := denseKeys(m.build, bc)
	nb, np := len(m.build), len(m.probe)
	m.links = links.Get().(*[]int32)
	if need := nb + 2*np + 1 + span; cap(*m.links) < need {
		*m.links = make([]int32, need)
	}
	buf := (*m.links)[:cap(*m.links)]
	m.next, m.first, m.hit = buf[:nb], buf[nb:nb+np], buf[nb+np:nb+2*np+1]
	if dense {
		// Integer keys in a short range index an array of each key's first
		// build row + 1 directly: no hash and no probe loop. Its last entry
		// stays 0, the miss every key outside the range reads.
		heads, c := buf[nb+2*np+1:nb+2*np+1+span], bc[0]
		clear(heads)
		for i := nb - 1; i >= 0; i-- {
			k := value.NumericKey.Canonical(m.build[i][c]).Int64() - lo
			m.next[i], heads[k] = heads[k]-1, int32(i+1)
		}
		c, last := pc[0], uint64(span-1)
		for p, r := range m.probe {
			v, k := value.NumericKey.Canonical(r[c]), last
			if v.K == value.Int {
				k = min(uint64(v.Int64()-lo), last)
			}
			m.first[p] = heads[k] - 1
		}
	} else {
		ht := value.NewKeyTable(value.NumericKey, bc, nb)
		for i := nb - 1; i >= 0; i-- {
			m.next[i] = int32(ht.Put(m.build, m.build[i], i))
		}
		ht.Find(m.build, m.probe, pc, m.first)
	}
	// Keep the probe rows that met a build row, in order, without a branch
	// on each: every row is written at the end of the kept ones, and only a
	// hit (first ≥ 0, sign bit clear) moves the end on. hit has one spare
	// slot, for the misses after the last hit.
	n := 0
	for p, b := range m.first {
		m.first[n], m.hit[n] = b, int32(p)
		n += int(^uint32(b) >> 31)
	}
	m.first, m.hit = m.first[:n], m.hit[:n]
	return m
}

// denseKeys reports whether match can index its build rows' keys directly:
// a key of one column, an integer under value.NumericKey in every build row,
// the keys spanning no more values than 9 per row (4 bytes a value, never
// more than a key table's 36 bytes a row, plus 256). span counts the values
// from lo up, plus one for the miss.
func denseKeys(build []value.Row, bc []int) (lo int64, span int, ok bool) {
	if len(bc) != 1 || len(build) == 0 {
		return 0, 0, false
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, r := range build {
		v := value.NumericKey.Canonical(r[bc[0]])
		if v.K != value.Int {
			return 0, 0, false
		}
		lo, hi = min(lo, v.Int64()), max(hi, v.Int64())
	}
	if w := uint64(hi - lo); w < uint64(9*len(build)+64) {
		return lo, int(w) + 2, true
	}
	return 0, 0, false
}

func (m matches) each(emit func(l, r value.Row)) {
	for i, b := range m.first {
		p := m.probe[m.hit[i]]
		for ; b >= 0; b = m.next[b] {
			if m.swapped {
				emit(m.build[b], p)
			} else {
				emit(p, m.build[b])
			}
		}
	}
}

// HashJoin equi-joins r and s on the given column pairs, in EachJoined's
// order. The output schema is the concatenation of both schemas.
func HashJoin(r, s Relation, lc, rc []int) Relation {
	return HashJoinKeep(r, s, lc, rc, nil)
}

// HashJoinKeep is HashJoin restricted to the columns keep of the
// concatenated schema, in that order; nil keeps every column. It counts the
// matching pairs first, then carves every output row out of one slab of
// exactly the output's size; like every relation's rows they must not be
// written to.
func HashJoinKeep(r, s Relation, lc, rc, keep []int) Relation {
	sch := JoinSchema(r.Schema, s.Schema, keep)
	m, n, w := match(r, s, lc, rc), 0, len(sch)
	defer m.release()
	for _, b := range m.first {
		for ; b >= 0; b = m.next[b] {
			n++
		}
	}
	out := Relation{Schema: sch, Rows: make([]value.Row, 0, n)}
	slab := make([]value.Value, n*w)
	m.each(func(l, r value.Row) {
		row := slab[:w:w]
		slab = slab[w:]
		if keep == nil {
			copy(row[copy(row, l):], r)
		}
		for i, c := range keep {
			row[i] = pairAt(l, r, c)
		}
		out.Rows = append(out.Rows, row)
	})
	return out
}

// JoinSchema is the schema of the rows l++r, restricted to the columns keep
// of it, in that order; nil keeps every column.
func JoinSchema(l, r value.Schema, keep []int) value.Schema {
	if keep == nil {
		return append(append(make(value.Schema, 0, len(l)+len(r)), l...), r...)
	}
	out := make(value.Schema, len(keep))
	for i, c := range keep {
		if c < len(l) {
			out[i] = l[c]
		} else {
			out[i] = r[c-len(l)]
		}
	}
	return out
}

// pairAt is column c of the row l++r.
func pairAt(l, r value.Row, c int) value.Value {
	if c < len(l) {
		return l[c]
	}
	return r[c-len(l)]
}

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// Supported aggregates.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
)

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return "?"
	}
}

// AggSpec names one aggregate to compute. Col is the input column index;
// -1 means COUNT(*).
type AggSpec struct {
	Func AggFunc
	Col  int
	As   string
}

type aggState struct {
	count int64       // non-null inputs (every row for COUNT(*))
	sum   float64     // SUM and AVG
	best  value.Value // MIN and MAX
}

// Aggregator groups the rows it is fed and folds the aggregates as they
// arrive, so its input never has to exist as a relation. Groups are matched
// under value.NumericKey and reported in first-seen order with the first
// row's key values; sums accumulate in arrival order.
type Aggregator struct {
	schema  value.Schema // of the result
	groupBy []int
	aggs    []AggSpec
	groups  *value.KeyTable // over keys
	keys    []value.Row     // each group's key, carved from slab
	slab    []value.Value
	states  []aggState // len(aggs) per group
	key     value.Row  // scratch: the current row's group key
}

// NewAggregator prepares to aggregate rows of the schema in, grouped by the
// columns groupBy. The result schema is the group-by columns followed by one
// column per aggregate. With no group-by columns a single global row is
// produced (even over an empty input, for COUNT to report 0).
func NewAggregator(in value.Schema, groupBy []int, aggs []AggSpec) *Aggregator {
	sch := make(value.Schema, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		sch = append(sch, in[g])
	}
	for _, a := range aggs {
		name := a.As
		if name == "" {
			if a.Col >= 0 {
				name = fmt.Sprintf("%s(%s)", a.Func, in[a.Col].Name)
			} else {
				name = fmt.Sprintf("%s(*)", a.Func)
			}
		}
		typ := value.Float
		if a.Func == Count {
			typ = value.Int
		} else if a.Col >= 0 && (a.Func == Min || a.Func == Max) {
			typ = in[a.Col].Type
		}
		sch = append(sch, value.Column{Name: name, Type: typ})
	}
	a := &Aggregator{schema: sch, groupBy: groupBy, aggs: aggs, key: make(value.Row, len(groupBy))}
	if len(groupBy) == 0 { // one global group, with the empty key
		a.keys, a.states = []value.Row{nil}, make([]aggState, len(aggs))
	} else {
		a.groups = value.NewKeyTable(value.NumericKey, nil, 0)
	}
	return a
}

// Add feeds one input row, given as the two halves l++r of a joined pair. A
// whole row is Add(row, nil).
func (a *Aggregator) Add(l, r value.Row) {
	g := 0
	if k := len(a.groupBy); k > 0 {
		for i, c := range a.groupBy {
			a.key[i] = pairAt(l, r, c)
		}
		if g = a.groups.Insert(a.keys, a.key, len(a.keys)); g < 0 {
			g = len(a.keys)
			if cap(a.slab)-len(a.slab) < k {
				a.slab = make([]value.Value, 0, k*max(8, len(a.keys)))
			}
			a.slab = append(a.slab, a.key...)
			a.keys = append(a.keys, a.slab[len(a.slab)-k:len(a.slab):len(a.slab)])
			a.states = append(a.states, make([]aggState, len(a.aggs))...)
		}
	}
	states := a.states[g*len(a.aggs):]
	for i, spec := range a.aggs {
		st := &states[i]
		if spec.Col < 0 {
			st.count++
			continue
		}
		v := pairAt(l, r, spec.Col)
		if v.IsNull() {
			continue
		}
		st.count++
		switch spec.Func { // fold only what the function reports
		case Sum, Avg:
			st.sum += v.AsFloat()
		case Min:
			if st.count == 1 || v.Compare(st.best) < 0 {
				st.best = v
			}
		case Max:
			if st.count == 1 || v.Compare(st.best) > 0 {
				st.best = v
			}
		}
	}
}

// Result returns one row per group.
func (a *Aggregator) Result() Relation {
	k, n := len(a.groupBy), len(a.aggs)
	groups := len(a.keys)
	out := Relation{Schema: a.schema}
	if groups == 0 {
		return out
	}
	out.Rows = make([]value.Row, groups)
	vals := make([]value.Value, 0, groups*(k+n))
	for g := range out.Rows {
		vals = append(vals, a.keys[g]...)
		for i, spec := range a.aggs {
			st := &a.states[g*n+i]
			v := value.NewNull()
			switch {
			case spec.Func == Count:
				v = value.NewInt(st.count)
			case st.count == 0:
				// SUM, AVG, MIN and MAX over no non-null value are NULL.
			case spec.Func == Sum:
				v = value.NewFloat(st.sum)
			case spec.Func == Avg:
				v = value.NewFloat(st.sum / float64(st.count))
			case spec.Func == Min || spec.Func == Max:
				v = st.best
			}
			vals = append(vals, v)
		}
		out.Rows[g] = vals[len(vals)-k-n : len(vals) : len(vals)]
	}
	return out
}

// Aggregate groups r by the given columns and computes the aggregates; see
// NewAggregator for the result's shape.
func Aggregate(r Relation, groupBy []int, aggs []AggSpec) Relation {
	a := NewAggregator(r.Schema, groupBy, aggs)
	for _, row := range r.Rows {
		a.Add(row, nil)
	}
	return a.Result()
}

// OrderBy sorts the relation by the given columns; desc[i] flips column i.
// The sort is stable.
func (r Relation) OrderBy(cols []int, desc []bool) Relation {
	rows := make([]value.Row, len(r.Rows))
	copy(rows, r.Rows)
	sort.SliceStable(rows, func(i, j int) bool {
		for k, c := range cols {
			cmp := rows[i][c].Compare(rows[j][c])
			if cmp == 0 {
				continue
			}
			if k < len(desc) && desc[k] {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return Relation{Schema: r.Schema, Rows: rows}
}

// Limit truncates the relation to at most n rows.
func (r Relation) Limit(n int) Relation {
	if n < 0 || n >= len(r.Rows) {
		return r
	}
	return Relation{Schema: r.Schema, Rows: r.Rows[:n]}
}
