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
	"slices"
	"sort"
	"strings"
	"sync"

	"payless/internal/chunk"
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
		if t.index.Insert(value.RowsOf(t.rows), r, len(t.rows)) >= 0 {
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

// Distinct removes duplicate rows (value.ExactKey), preserving first-seen
// order.
func (r Relation) Distinct() Relation {
	seen := value.NewKeyTable(value.ExactKey, nil, 0)
	out := Relation{Schema: r.Schema}
	for i, row := range r.Rows {
		if seen.Insert(value.RowsOf(r.Rows), row, i) < 0 {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Col is column Col of input In of a Tuples.
type Col struct{ In, Col int }

// Column is one column of a relation, read by row id. The semantic store's
// columns are typed: an Int column of int64s (IntColumn), a categorical
// column of indexes into its domain (DomainColumn), any other of values
// (ValueColumn). A row list — a local table, or rows bought without the
// store — is read a column of its rows at a time (Arena.Whole).
type Column struct {
	ints chunk.List[int64]
	vals chunk.List[value.Value]
	dom  []value.Value
	rows []value.Row
	col  int32
	kind colKind
}

type colKind uint8

const (
	valCol colKind = iota // the zero Column holds no values
	intCol
	domCol
	rowCol
)

// IntColumn is the Int column whose values are ints.
func IntColumn(ints chunk.List[int64]) Column { return Column{ints: ints, kind: intCol} }

// DomainColumn is the column whose row id holds dom[idx.At(id)].
func DomainColumn(idx chunk.List[int64], dom []value.Value) Column {
	return Column{ints: idx, dom: dom, kind: domCol}
}

// ValueColumn is the column of the values vals.
func ValueColumn(vals chunk.List[value.Value]) Column { return Column{vals: vals} }

// At returns the value of row id.
func (c *Column) At(id int) value.Value {
	switch c.kind {
	case intCol:
		return value.NewInt(c.ints.At(id))
	case domCol:
		return c.dom[c.ints.At(id)]
	case rowCol:
		return c.rows[id][c.col]
	}
	return c.vals.At(id)
}

// Input is one relation a Tuples reads: its columns, through the ids that
// select their rows, or every row in order where Ids is nil.
type Input struct {
	Schema value.Schema
	Cols   []Column
	Ids    []int32
}

// Tuples is a relation held as row ids: its i-th tuple is, for every input
// k, the i-th row In[k] selects, and its schema is its inputs' schemas one
// after the other. A join writes only the ids of its pairs, 4 bytes an input
// whatever the rows' width; values are read through them where they are
// needed.
type Tuples struct {
	In  []Input
	N   int
	own *[]int32 // the arena list the ids are carved from
}

// Value is column c's value in tuple i.
func (t Tuples) Value(c Col, i int) value.Value { return t.In[c.In].Cols[c.Col].At(int(t.id(c.In, i))) }

func (t Tuples) id(k, i int) int32 {
	if ids := t.In[k].Ids; ids != nil {
		return ids[i]
	}
	return int32(i)
}

// Column finds the column named name; In is -1 when there is none.
func (t Tuples) Column(name string) Col {
	for k, in := range t.In {
		if c := in.Schema.IndexOf(name); c >= 0 {
			return Col{k, c}
		}
	}
	return Col{-1, -1}
}

// Project materialises the columns cols of every tuple, in order. All the
// columns of one input read from a row list, in their own order, are its
// rows, uncopied: only the list is new.
func (t Tuples) Project(cols []Col) Relation {
	w := len(cols)
	out := Relation{Schema: make(value.Schema, w), Rows: make([]value.Row, t.N)}
	whole := len(t.In) == 1 && w == len(t.In[0].Schema) && w > 0 && t.In[0].Cols[0].kind == rowCol
	for i, c := range cols {
		out.Schema[i] = t.In[c.In].Schema[c.Col]
		whole = whole && c.Col == i
	}
	if whole {
		rows := t.In[0].Cols[0].rows
		for i := range out.Rows {
			out.Rows[i] = rows[t.id(0, i)]
		}
		return out
	}
	vals := make([]value.Value, t.N*w)
	for i := range out.Rows {
		out.Rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	for j, c := range cols {
		col := &t.In[c.In].Cols[c.Col]
		for i, row := range out.Rows {
			row[j] = col.At(int(t.id(c.In, i)))
		}
	}
	return out
}

// Render renders the columns cols of every tuple as RenderRows renders
// their Project, straight from the columns: no row of values is built.
func (t Tuples) Render(cols []Col) [][]string {
	return renderText(t.N, len(cols), func(i, j int) value.Value { return t.Value(cols[j], i) })
}

// RenderRows renders rows, all of one width, as strings in value.Value.String
// form. No rows render as nil.
func RenderRows(rows []value.Row) [][]string {
	if len(rows) == 0 {
		return nil
	}
	return renderText(len(rows), len(rows[0]), func(i, j int) value.Value { return rows[i][j] })
}

// renderText renders n rows of w cells, cell(i, j) the j-th of row i, in a
// fixed number of allocations whatever the row count: one flat cell array
// the rows slice, and one text slab that numeric cells are substrings of (a
// strings.Builder never moves or changes bytes it has written). A string
// cell is the dictionary's own text.
func renderText(n, w int, cell func(i, j int) value.Value) [][]string {
	if n == 0 {
		return nil
	}
	out, cells := make([][]string, n), make([]string, n*w)
	var slab strings.Builder
	slab.Grow(8 * len(cells))
	var text [32]byte // the longest Int or Float text is 24 bytes
	for i := range out {
		out[i] = cells[i*w : (i+1)*w : (i+1)*w]
		for j := range out[i] {
			switch v := cell(i, j); v.K {
			case value.String:
				out[i][j] = v.Str()
			case value.Null:
				out[i][j] = "NULL"
			default:
				from := slab.Len()
				slab.Write(v.AppendText(text[:0]))
				out[i][j] = slab.String()[from:]
			}
		}
	}
	return out
}

// Arena is a query's join memory: the id lists of its tuples, the inputs
// and columns they read and a join's scratch. A join takes a list for its
// result and gives back the lists of the tuples it consumed, so a chain of
// joins cycles through three lists, and a pool hands the arena, all its
// lists free, on to the next query. Nothing a query returns may point into
// it.
type Arena struct {
	lists  []*[]int32       // every list the arena has
	free   []*[]int32       // the lists no tuples use
	inputs []Input          // carved into Tuples.In until Release
	cols   []Column         // carved into Input.Cols until Release
	keys   [2][]value.Value // a join's key values, a list a side
	rows   [2][]value.Row   // rows of those values, a list a side
	links  []int32          // a join's match lists
}

var arenas = sync.Pool{New: func() any { return new(Arena) }}

// NewArena returns an arena from the pool.
func NewArena() *Arena { return arenas.Get().(*Arena) }

// Release hands a back to the pool, unless its buffers grew past 512 KB (a
// cold plan's big join): the pool keeps what covered queries reuse, not
// the largest query's. Tuples of a's, and the lists it handed out, must not
// be used afterwards.
func (a *Arena) Release() {
	clear(a.inputs)
	clear(a.cols) // or the pool would keep the columns' chunks alive
	a.inputs, a.cols, a.free = a.inputs[:0], a.cols[:0], append(a.free[:0], a.lists...)
	size := 4*cap(a.links) + 24*(cap(a.rows[0])+cap(a.rows[1])) + 16*(cap(a.keys[0])+cap(a.keys[1])) +
		120*cap(a.cols) // a Column is 120 bytes
	for _, l := range a.lists {
		size += 4 * cap(*l)
	}
	if size <= 512<<10 {
		arenas.Put(a)
	}
}

// List returns a free list of a's, emptied, with room for n ids: an input's
// ids are filled in place and handed to Source.
func (a *Arena) List(n int) *[]int32 {
	if len(a.free) == 0 {
		a.free = append(a.free, new([]int32))
		a.lists = append(a.lists, a.free[0])
	}
	l := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	*l = slices.Grow((*l)[:0], n)
	return l
}

func (a *Arena) carve(n int) []Input {
	a.inputs = slices.Grow(a.inputs, n)[:len(a.inputs)+n]
	return a.inputs[len(a.inputs)-n : len(a.inputs) : len(a.inputs)]
}

// Columns returns n columns carved from a's, for the store to fill.
func (a *Arena) Columns(n int) []Column {
	a.cols = slices.Grow(a.cols, n)[:len(a.cols)+n]
	return a.cols[len(a.cols)-n : len(a.cols) : len(a.cols)]
}

// Source is the tuples of one input: of the n rows of schema held in cols,
// the ones the ids in list, from List, select, or every row when all.
func (a *Arena) Source(schema value.Schema, cols []Column, n int, list *[]int32, all bool) Tuples {
	t := Tuples{In: a.carve(1), N: n, own: list}
	t.In[0] = Input{Schema: schema, Cols: cols}
	if !all {
		t.In[0].Ids, t.N = *list, len(*list)
	}
	return t
}

// Whole is the tuples of every row of rows, in order: column c of the
// input reads value c of each row.
func (a *Arena) Whole(schema value.Schema, rows []value.Row) Tuples {
	cols := a.Columns(len(schema))
	for c := range cols {
		cols[c] = Column{rows: rows, col: int32(c), kind: rowCol}
	}
	return a.Source(schema, cols, len(rows), a.List(0), true)
}

// Filter keeps the tuples keep accepts, in order, compacting t's ids in
// place (a whole input's rows are listed in its list from List first): t
// must not be used afterwards.
func (a *Arena) Filter(t Tuples, keep func(i int) bool) Tuples {
	if in := &t.In[0]; in.Ids == nil {
		ids := slices.Grow((*t.own)[:0], t.N)[:t.N]
		for i := range ids {
			ids[i] = int32(i)
		}
		in.Ids, *t.own = ids, ids
	}
	n := 0
	for i := range t.N {
		if keep(i) {
			for k := range t.In {
				t.In[k].Ids[n] = t.In[k].Ids[i]
			}
			n++
		}
	}
	for k := range t.In {
		t.In[k].Ids = t.In[k].Ids[:n]
	}
	t.N = n
	return t
}

// Join equi-joins l and r in EachPair's order: a result tuple is a pair's l
// tuple, then its r tuple. The result's ids take a list of a's, and l's and
// r's go back to a: neither may be used afterwards.
func (a *Arena) Join(l, r Tuples, lk, rk []Col) Tuples {
	m, n, w := a.match(l, r, lk, rk), 0, len(l.In)+len(r.In)
	for _, b := range m.first {
		for ; b >= 0; b = m.next[b] {
			n++
		}
	}
	out := Tuples{In: a.carve(w), N: n, own: a.List(n * w)}
	ids := (*out.own)[:n*w]
	copy(out.In[copy(out.In, l.In):], r.In)
	for k := range out.In {
		out.In[k].Ids = ids[k*n : (k+1)*n : (k+1)*n]
	}
	j, right := 0, out.In[len(l.In):]
	m.each(func(li, ri int) {
		for k := range l.In {
			out.In[k].Ids[j] = l.id(k, li)
		}
		for k := range right {
			right[k].Ids[j] = r.id(k, ri)
		}
		j++
	})
	a.free = append(a.free, l.own, r.own)
	return out
}

// EachPair calls fn on the tuple numbers of every pair of l's and r's tuples
// whose key columns lk and rk agree pairwise under value.NumericKey; with no
// keys, or lists of different lengths, on every pair, left-major. The hash
// table is built over the smaller input (right on a tie) and the other one
// probes it: pairs come in probe order, each probe tuple's matches in build
// order.
func (a *Arena) EachPair(l, r Tuples, lk, rk []Col, fn func(li, ri int)) {
	a.match(l, r, lk, rk).each(fn)
}

// matches are a join's pairs: the i-th probe row with a match,
// probe[hit[i]], meets build rows first[i], next[first[i]] and so on, until
// -1. The three lists are carved from the arena's links.
type matches struct {
	hit, first, next []int32
	swapped          bool // the build side is the left input
}

func (a *Arena) match(l, r Tuples, lk, rk []Col) matches {
	var m matches
	if len(lk) != len(rk) {
		lk, rk = nil, nil
	}
	probe, build := keys{l, lk, 0}, keys{r, rk, 1}
	// With the empty key every row meets every row, left-major.
	if m.swapped = len(lk) > 0 && l.N < r.N; m.swapped {
		build, probe = probe, build
	}
	// Filled from the back, the table ends up holding each key's first
	// build row, and next[i] is the build row after i with its key.
	lo, span, dense := denseKeys(&build)
	nb, np := build.t.N, probe.t.N
	if need := nb + 2*np + 1 + span; cap(a.links) < need {
		a.links = make([]int32, need)
	}
	buf := a.links[:cap(a.links)]
	m.next, m.first, m.hit = buf[:nb], buf[nb:nb+np], buf[nb+np:nb+2*np+1]
	if dense {
		// Integer keys in a short range index an array of each key's first
		// build row + 1 directly: no hash and no probe loop. Its last entry
		// stays 0, the miss every key outside the range reads.
		heads, last := buf[nb+2*np+1:nb+2*np+1+span], uint64(span-1)
		clear(heads)
		for j := nb - 1; j >= 0; j-- {
			x, _ := build.int(j)
			m.next[j], heads[x-lo] = heads[x-lo]-1, int32(j+1)
		}
		for p := range m.first {
			k := last
			if x, ok := probe.int(p); ok {
				k = min(uint64(x-lo), last)
			}
			m.first[p] = heads[k] - 1
		}
	} else {
		// A key row holds just the key, so the table keys the whole row.
		brows, prows := a.keyRows(&build), a.keyRows(&probe)
		ht, rowAt := value.NewKeyTable(value.NumericKey, nil, nb), value.RowsOf(brows)
		for j := nb - 1; j >= 0; j-- {
			m.next[j] = int32(ht.Put(rowAt, brows[j], j))
		}
		ht.Find(rowAt, prows, nil, m.first)
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

// keys is one side of a join: the key columns ks of the tuples t, whose
// gathered rows take the arena's lists of side.
type keys struct {
	t    Tuples
	ks   []Col
	side int
}

// int returns tuple i's key, one column's, and whether it is an integer
// under value.NumericKey: an Int column's value as it is, any other value
// made canonical.
func (k *keys) int(i int) (int64, bool) {
	c := k.ks[0]
	col, id := &k.t.In[c.In].Cols[c.Col], int(k.t.id(c.In, i))
	if col.kind == intCol {
		return col.ints.At(id), true
	}
	v := value.NumericKey.Canonical(col.At(id))
	return v.Int64(), v.K == value.Int
}

// keyRows gathers a row of k's key values per tuple into the arena's lists
// of its side.
func (a *Arena) keyRows(k *keys) []value.Row {
	n, w := k.t.N, len(k.ks)
	vals := slices.Grow(a.keys[k.side][:0], n*w) // never regrown: rows point into it
	rows := slices.Grow(a.rows[k.side][:0], n)
	for i := range n {
		for _, c := range k.ks {
			vals = append(vals, k.t.Value(c, i))
		}
		rows = append(rows, vals[len(vals)-w:len(vals):len(vals)])
	}
	a.keys[k.side], a.rows[k.side] = vals, rows
	return rows
}

// denseKeys reports whether match can index its build keys directly: one
// key column, an integer in every build tuple, the keys spanning no more
// values than 9 per tuple (4 bytes a value, never more than a key table's
// 36 bytes a row, plus 256). span counts the values from lo up, plus one
// for the miss.
func denseKeys(build *keys) (lo int64, span int, ok bool) {
	if len(build.ks) != 1 || build.t.N == 0 {
		return 0, 0, false
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range build.t.N {
		x, ok := build.int(i)
		if !ok {
			return 0, 0, false
		}
		lo, hi = min(lo, x), max(hi, x)
	}
	if w := uint64(hi - lo); w < uint64(9*build.t.N+64) {
		return lo, int(w) + 2, true
	}
	return 0, 0, false
}

// each calls fn(l, r) on the tuple numbers of every pair, in order.
func (m matches) each(fn func(l, r int)) {
	for i, b := range m.first {
		p := int(m.hit[i])
		for ; b >= 0; b = m.next[b] {
			if m.swapped {
				fn(int(b), p)
			} else {
				fn(p, int(b))
			}
		}
	}
}

// HashJoin equi-joins r and s on the given column pairs: their Join,
// materialised. The output schema is the concatenation of both schemas.
func HashJoin(r, s Relation, lc, rc []int) Relation {
	a := NewArena()
	defer a.Release()
	var lk, rk, all []Col
	for _, c := range lc {
		lk = append(lk, Col{0, c})
	}
	for _, c := range rc {
		rk = append(rk, Col{0, c})
	}
	t := a.Join(a.Whole(r.Schema, r.Rows), a.Whole(s.Schema, s.Rows), lk, rk)
	for k, in := range t.In {
		for c := range in.Schema {
			all = append(all, Col{k, c})
		}
	}
	return t.Project(all)
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
	*groups
}

// groups is what an Aggregator grows as groups arrive. Result copies the
// groups out, so a pool hands it on to the next Aggregator, unless it grew
// past maxPooledGroups: a covered query's GROUP BY reuses the last one's.
type groups struct {
	table  *value.KeyTable // over keys
	keys   []value.Row     // each group's key, carved from slab
	slab   []value.Value
	states []aggState // len(aggs) per group
	key    value.Row  // the current row's group key
}

const maxPooledGroups = 1 << 10

var groupPool = sync.Pool{New: func() any { return &groups{table: value.NewKeyTable(value.NumericKey, nil, 0)} }}

func (g *groups) keyAt(id int) value.Row { return g.keys[id] }

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
	a := &Aggregator{schema: sch, groupBy: groupBy, aggs: aggs, groups: groupPool.Get().(*groups)}
	a.key = slices.Grow(a.key[:0], len(groupBy))[:len(groupBy)]
	if len(groupBy) == 0 { // one global group, with the empty key
		a.keys, a.states = append(a.keys, nil), append(a.states, make([]aggState, len(aggs))...)
	}
	return a
}

// Add feeds one input row.
func (a *Aggregator) Add(row value.Row) {
	g := 0
	if k := len(a.groupBy); k > 0 {
		for i, c := range a.groupBy {
			a.key[i] = row[c]
		}
		if g = a.table.Insert(a.keyAt, a.key, len(a.keys)); g < 0 {
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
		v := row[spec.Col]
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

// Result returns one row per group. The Aggregator is not used afterwards.
func (a *Aggregator) Result() Relation {
	defer a.release()
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

// release hands a's groups, emptied, back to the pool.
func (a *Aggregator) release() {
	if g := a.groups; len(g.keys) <= maxPooledGroups {
		clear(g.keys) // they point into earlier slabs
		g.table.Reset()
		g.keys, g.slab, g.states = g.keys[:0], g.slab[:0], g.states[:0]
		groupPool.Put(g)
	}
	a.groups = nil
}

// Aggregate groups r by the given columns and computes the aggregates; see
// NewAggregator for the result's shape.
func Aggregate(r Relation, groupBy []int, aggs []AggSpec) Relation {
	a := NewAggregator(r.Schema, groupBy, aggs)
	for _, row := range r.Rows {
		a.Add(row)
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
