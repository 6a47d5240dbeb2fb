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
	"unsafe"

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

// gather sets dst[j] to the value of the row at[j] selects: ids[at[j]], or
// at[j] itself where ids is nil. The column's kind is switched on once.
func (c *Column) gather(dst []value.Value, ids, at []int32) {
	dst = dst[:len(at)]
	switch c.kind {
	case intCol:
		for j, i := range at {
			dst[j] = value.NewInt(c.ints.At(int(rowOf(ids, i))))
		}
	case domCol:
		for j, i := range at {
			dst[j] = c.dom[c.ints.At(int(rowOf(ids, i)))]
		}
	case rowCol:
		for j, i := range at {
			dst[j] = c.rows[rowOf(ids, i)][c.col]
		}
	default:
		for j, i := range at {
			dst[j] = c.vals.At(int(rowOf(ids, i)))
		}
	}
}

// rowOf is the row id of tuple i of an input with the ids ids.
func rowOf(ids []int32, i int32) int32 {
	if ids != nil {
		return ids[i]
	}
	return i
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

func (t Tuples) id(k, i int) int32 { return rowOf(t.In[k].Ids, int32(i)) }

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
// and columns they read, a join's scratch and the blocks its kernels read.
// A join takes a list for its result and gives back the lists of the tuples
// it consumed, so a chain of joins cycles through three lists, and a pool
// hands the arena, all its lists free, on to the next query. Nothing a
// query returns may point into it.
type Arena struct {
	lists  []*[]int32       // every list the arena has
	free   []*[]int32       // the lists no tuples use
	inputs []Input          // carved into Tuples.In until Release
	cols   []Column         // carved into Input.Cols until Release
	keys   [2][]value.Value // a join's key values, a list a side
	rows   [2][]value.Row   // rows of those values, a list a side
	links  []int32          // a join's match lists
	vals   []value.Value    // a block of each column Fold reads
	l, r   [block]int32     // a block's tuple numbers, a side each
	ints   [block]int64     // a block's integer keys
	miss   [block]int32     // the positions of the keys that are no integer
}

// block is how many tuples a kernel reads at a time: a column's kind is
// switched on once a block.
const block = 128

// maxPooledArena is the largest footprint Release hands to the pool: what
// covered queries reuse, not a cold plan's big join.
const maxPooledArena = 512 << 10

var arenas = sync.Pool{New: func() any { return new(Arena) }}

// NewArena returns an arena from the pool.
func NewArena() *Arena { return arenas.Get().(*Arena) }

// Release hands a back to the pool, unless its footprint grew past
// maxPooledArena. Tuples of a's, and the lists it handed out, must not be
// used afterwards.
func (a *Arena) Release() {
	clear(a.inputs)
	clear(a.cols) // or the pool would keep the columns' chunks alive
	a.inputs, a.cols, a.free = a.inputs[:0], a.cols[:0], append(a.free[:0], a.lists...)
	if a.footprint() <= maxPooledArena {
		arenas.Put(a)
	}
}

// footprint is the bytes a keeps: itself and every buffer it holds.
func (a *Arena) footprint() int {
	size := int(unsafe.Sizeof(*a)) + 4*cap(a.links) +
		int(unsafe.Sizeof(Input{}))*cap(a.inputs) + int(unsafe.Sizeof(Column{}))*cap(a.cols) +
		int(unsafe.Sizeof(value.Value{}))*(cap(a.keys[0])+cap(a.keys[1])+cap(a.vals)) +
		int(unsafe.Sizeof(value.Row{}))*(cap(a.rows[0])+cap(a.rows[1])) +
		int(unsafe.Sizeof(&[]int32{}))*(cap(a.lists)+cap(a.free))
	for _, l := range a.lists {
		size += int(unsafe.Sizeof(*l)) + 4*cap(*l)
	}
	return size
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
		in.Ids = seq(slices.Grow((*t.own)[:0], t.N)[:t.N], 0)
		*t.own = in.Ids
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

// Join equi-joins l and r: a result tuple is a pair's l tuple, then its r
// tuple, in the order pairs.fill writes them. The result's ids take a list
// of a's, and l's and r's go back to a: neither may be used afterwards.
func (a *Arena) Join(l, r Tuples, lk, rk []Col) Tuples {
	p, w := a.match(l, r, lk, rk), len(l.In)+len(r.In)
	n := p.count()
	out := Tuples{In: a.carve(w), N: n, own: a.List(n * w)}
	ids := (*out.own)[:n*w]
	copy(out.In[copy(out.In, l.In):], r.In)
	for k := range out.In {
		out.In[k].Ids = ids[k*n : (k+1)*n : (k+1)*n]
	}
	// Each pair's tuple numbers go into the ids of its sides' last inputs;
	// every input's ids are read through them, the last input's last.
	p.fill(out.In[len(l.In)-1].Ids, out.In[w-1].Ids)
	throughTuples(out.In[:len(l.In)], l.In)
	throughTuples(out.In[len(l.In):], r.In)
	a.free = append(a.free, l.own, r.own)
	return out
}

// throughTuples turns the tuple numbers out's last input holds into the
// ids of each input of in, the inputs of the tuples they number.
func throughTuples(out, in []Input) {
	at := out[len(out)-1].Ids
	for k := range out {
		if ids := in[k].Ids; ids != nil {
			for j, i := range at {
				out[k].Ids[j] = ids[i]
			}
		} else if k < len(out)-1 {
			copy(out[k].Ids, at)
		}
	}
}

// Fold feeds agg the columns cols (of l's inputs, then r's; In -1 for a
// column agg does not read) of every tuple of l or, when r has inputs, of
// every pair Join would return, in its order, a block at a time: the join
// is never written. When every GROUP BY column comes from one side, of at
// most maxRemembered tuples, agg resolves each of its tuples' group once.
func (a *Arena) Fold(agg *Aggregator, l, r Tuples, lk, rk, cols []Col) {
	var p pairs
	var keyed []int32 // the tuple numbers of the side whose tuples key the groups
	if len(r.In) > 0 {
		p = a.match(l, r, lk, rk)
		left, right := true, true
		for _, g := range agg.groupBy {
			left, right = left && cols[g].In < len(l.In), right && cols[g].In >= len(l.In)
		}
		switch {
		case len(agg.groupBy) == 0:
		case left && agg.remember(l.N):
			keyed = a.l[:]
		case right && agg.remember(r.N):
			keyed = a.r[:]
		}
	}
	vals := a.values(len(cols))
	for from := 0; ; {
		var n int
		if len(r.In) > 0 {
			n = p.fill(a.l[:], a.r[:])
		} else if n = min(block, l.N-from); n > 0 {
			seq(a.l[:n], from)
			from += n
		}
		if n <= 0 {
			return
		}
		for j, c := range cols {
			t, at := l, a.l[:n]
			if c.In >= len(l.In) {
				t, at, c.In = r, a.r[:n], c.In-len(l.In)
			}
			if c.In >= 0 {
				in := &t.In[c.In]
				in.Cols[c.Col].gather(vals[j*block:], in.Ids, at)
			}
		}
		agg.fold(vals, n, keyed)
	}
}

// values returns a's value scratch, w blocks long.
func (a *Arena) values(w int) []value.Value {
	a.vals = slices.Grow(a.vals[:0], w*block)[:w*block]
	return a.vals
}

// seq sets at[j] to from+j.
func seq(at []int32, from int) []int32 {
	for j := range at {
		at[j] = int32(from + j)
	}
	return at
}

// pairs are a join's matches, written out a block at a time: the i-th probe
// tuple with a match, probe[hit[i]], meets build tuples first[i],
// next[first[i]] and so on, until -1. The three lists are carved from the
// arena's links. Pairs come in probe order, each probe tuple's matches in
// build order; with no keys, every pair, left-major.
type pairs struct {
	hit, first, next []int32
	swapped          bool  // the build side is the left input
	i                int   // the hit fill writes next
	b                int32 // its build tuple fill writes next, -1 for its first
}

// count returns the number of pairs.
func (p *pairs) count() (n int) {
	for _, b := range p.first {
		for ; b >= 0; b = p.next[b] {
			n++
		}
	}
	return n
}

// fill writes the next pairs' tuple numbers, l's into l and r's into r, as
// many as fit, and returns how many it wrote: 0 after the last.
func (p *pairs) fill(l, r []int32) int {
	probe, build := l, r[:len(l)]
	if p.swapped {
		probe, build = build, probe
	}
	n := 0
	for ; n < len(probe) && p.i < len(p.hit); n++ {
		if p.b < 0 {
			p.b = p.first[p.i]
		}
		probe[n], build[n] = p.hit[p.i], p.b
		if p.b = p.next[p.b]; p.b < 0 {
			p.i++
		}
	}
	return n
}

// match finds the pairs of l's and r's tuples whose key columns lk and rk
// agree pairwise under value.NumericKey; with no keys, or lists of
// different lengths, every pair. The build side is the smaller input
// (right on a tie, and always with no keys), the other one probes it.
func (a *Arena) match(l, r Tuples, lk, rk []Col) pairs {
	m := pairs{b: -1}
	if len(lk) != len(rk) {
		lk, rk = nil, nil
	}
	probe, build, pk, bk := l, r, lk, rk
	if m.swapped = len(lk) > 0 && l.N < r.N; m.swapped {
		probe, build, pk, bk = r, l, rk, lk
	}
	lo, span, dense := a.dense(build, bk)
	nb, np := build.N, probe.N
	if need := nb + 2*np + 1 + span; cap(a.links) < need {
		a.links = make([]int32, need)
	}
	buf := a.links[:cap(a.links)]
	m.next, m.first, m.hit = buf[:nb], buf[nb:nb+np], buf[nb+np:nb+2*np+1]
	// Filled from the back, the heads end up holding each key's first build
	// tuple, and next[j] is the build tuple after j with its key.
	if dense {
		// Integer keys in a short range index an array of each key's first
		// build tuple + 1 directly: no hash and no probe loop. Its last
		// entry stays 0, the miss every key outside the range, or no
		// integer, reads.
		heads, last := buf[nb+2*np+1:nb+2*np+1+span], uint64(span-1)
		clear(heads)
		for to := nb; to > 0; to -= block {
			from := max(0, to-block)
			keys, _ := a.intKeys(build, bk[0], from, to)
			for j := len(keys) - 1; j >= 0; j-- {
				m.next[from+j], heads[keys[j]-lo] = heads[keys[j]-lo]-1, int32(from+j+1)
			}
		}
		for from := 0; from < np; from += block {
			keys, miss := a.intKeys(probe, pk[0], from, min(np, from+block))
			first := m.first[from : from+len(keys)]
			for j, x := range keys {
				first[j] = heads[min(uint64(x-lo), last)] - 1
			}
			for _, j := range miss {
				first[j] = -1
			}
		}
	} else {
		// A key row holds just the key, so the table keys the whole row:
		// with the empty key every tuple meets every tuple.
		brows, prows := a.keyRows(0, build, bk), a.keyRows(1, probe, pk)
		ht, rowAt := value.NewKeyTable(value.NumericKey, nil, nb), value.RowsOf(brows)
		for j := nb - 1; j >= 0; j-- {
			m.next[j] = int32(ht.Put(rowAt, brows[j], j))
		}
		ht.Find(rowAt, prows, nil, m.first)
	}
	// Keep the probe tuples that met a build tuple, in order, without a
	// branch on each: every tuple is written at the end of the kept ones,
	// and only a hit (first ≥ 0, sign bit clear) moves the end on. hit has
	// one spare slot, for the misses after the last hit.
	n := 0
	for p, b := range m.first {
		m.first[n], m.hit[n] = b, int32(p)
		n += int(^uint32(b) >> 31)
	}
	m.first, m.hit = m.first[:n], m.hit[:n]
	return m
}

// rows returns the row ids of tuples from to to of t's input k: a run of
// its ids or, where it has none, the tuple numbers, written into at.
func (t Tuples) rows(k, from, to int, at []int32) []int32 {
	if ids := t.In[k].Ids; ids != nil {
		return ids[from:to]
	}
	return seq(at[:to-from], from)
}

// intKeys reads key column c of tuples from to to of t, at most a block:
// each key under value.NumericKey as an int64, and the positions of the
// keys that are no integer. An Int column's keys are its ints; any other
// column's values are made canonical first.
func (a *Arena) intKeys(t Tuples, c Col, from, to int) (keys []int64, miss []int32) {
	col, ids := &t.In[c.In].Cols[c.Col], t.rows(c.In, from, to, a.l[:])
	keys, miss = a.ints[:len(ids)], a.miss[:0]
	if col.kind == intCol {
		for j, id := range ids {
			keys[j] = col.ints.At(int(id))
		}
		return keys, miss
	}
	vals := a.values(1)
	col.gather(vals, nil, ids)
	for j, v := range vals[:len(ids)] {
		v = value.NumericKey.Canonical(v)
		if keys[j] = v.Int64(); v.K != value.Int {
			miss = append(miss, int32(j))
		}
	}
	return keys, miss
}

// keyRows gathers a row of t's key values ks per tuple into the arena's
// lists of side, a column at a time.
func (a *Arena) keyRows(side int, t Tuples, ks []Col) []value.Row {
	n, w := t.N, len(ks)
	vals := slices.Grow(a.keys[side][:0], n*w)[:n*w] // never regrown: rows point into it
	rows := slices.Grow(a.rows[side][:0], n)[:n]
	for i := range rows {
		rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	col := a.values(1)
	for q, c := range ks {
		for from := 0; from < n; from += block {
			to := min(n, from+block)
			t.In[c.In].Cols[c.Col].gather(col, nil, t.rows(c.In, from, to, a.l[:]))
			for j, v := range col[:to-from] {
				vals[(from+j)*w+q] = v
			}
		}
	}
	a.keys[side], a.rows[side] = vals, rows
	return rows
}

// dense reports whether match can index t's build keys ks directly: one key
// column, an integer in every tuple, the keys spanning no more values than
// 9 per tuple (4 bytes a value, never more than a key table's 36 bytes a
// row, plus 256). span counts the values from lo up, plus one for the miss.
func (a *Arena) dense(t Tuples, ks []Col) (lo int64, span int, ok bool) {
	if len(ks) != 1 || t.N == 0 {
		return 0, 0, false
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for from := 0; from < t.N; from += block {
		keys, miss := a.intKeys(t, ks[0], from, min(t.N, from+block))
		if len(miss) > 0 {
			return 0, 0, false
		}
		for _, x := range keys {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	if w := uint64(hi - lo); w < uint64(9*t.N+64) {
		return lo, int(w) + 2, true
	}
	return 0, 0, false
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
// arrive, a block at a time (Arena.Fold), so its input never has to exist
// as a relation. Groups are matched under value.NumericKey and reported in
// first-seen order with the first row's key values; sums accumulate in
// arrival order.
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
	gids   [block]int32
	memo   []int32 // each remembered tuple's group + 1, 0 until resolved
}

const maxPooledGroups = 1 << 10

// maxRemembered is the most tuples a join side may have for Fold to
// remember their groups: 16 KB of memo.
const maxRemembered = 1 << 12

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

// remember readies a to resolve the group of each of n tuples once, if n
// is at most maxRemembered.
func (a *Aggregator) remember(n int) bool {
	if n > maxRemembered {
		return false
	}
	a.memo = slices.Grow(a.memo[:0], n)[:n]
	clear(a.memo)
	return true
}

// fold feeds n input rows, input column c of row i being cols[c*block+i].
// With tuples, row i comes from tuple tuples[i] of a side whose tuples
// remember their group, and all of a tuple's rows have its group key.
func (a *Aggregator) fold(cols []value.Value, n int, tuples []int32) {
	gs := a.gids[:n]
	if len(a.groupBy) == 0 {
		clear(gs) // the one global group
	} else {
		a.resolve(cols, gs, tuples)
	}
	// Each aggregate folds its column in row order: a group's sum adds its
	// rows as they came.
	w := len(a.aggs)
	for s, spec := range a.aggs {
		states, col := a.states[s:], []value.Value(nil) // col: the block of the aggregate's column
		if spec.Col >= 0 {
			col = cols[spec.Col*block : spec.Col*block+n]
		}
		switch { // fold only what the function reports
		case spec.Col < 0 && len(a.groupBy) == 0: // COUNT(*) of the one group
			states[0].count += int64(n)
		case spec.Col < 0:
			for _, g := range gs {
				states[int(g)*w].count++
			}
		case spec.Func == Count:
			for i, v := range col {
				if !v.IsNull() {
					states[int(gs[i])*w].count++
				}
			}
		case spec.Func == Sum || spec.Func == Avg:
			for i, v := range col {
				if !v.IsNull() {
					st := &states[int(gs[i])*w]
					st.count++
					st.sum += v.AsFloat()
				}
			}
		default:
			better := -1 // the sign of Compare(v, best) for a new best: below it for MIN
			if spec.Func == Max {
				better = 1
			}
			for i, v := range col {
				if !v.IsNull() {
					st := &states[int(gs[i])*w]
					if st.count++; st.count == 1 || v.Compare(st.best)*better > 0 {
						st.best = v
					}
				}
			}
		}
	}
}

// resolve sets gs[i] to the group of row i of the block cols, adding the
// groups that are new: a tuple's remembered group where fold has tuples.
func (a *Aggregator) resolve(cols []value.Value, gs, tuples []int32) {
	for i := range gs {
		if tuples != nil && a.memo[tuples[i]] > 0 {
			gs[i] = a.memo[tuples[i]] - 1
			continue
		}
		for q, c := range a.groupBy {
			a.key[q] = cols[c*block+i]
		}
		g, k := a.table.Insert(a.keyAt, a.key, len(a.keys)), len(a.key)
		if g < 0 {
			if g = len(a.keys); cap(a.slab)-len(a.slab) < k {
				a.slab = make([]value.Value, 0, k*max(8, len(a.keys)))
			}
			a.slab = append(a.slab, a.key...)
			a.keys = append(a.keys, a.slab[len(a.slab)-k:len(a.slab):len(a.slab)])
			a.states = append(a.states, make([]aggState, len(a.aggs))...)
		}
		if gs[i] = int32(g); tuples != nil {
			a.memo[tuples[i]] = gs[i] + 1
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
	a := NewArena()
	defer a.Release()
	cols := make([]Col, len(r.Schema))
	for c := range cols {
		cols[c] = Col{-1, c} // read only the columns the aggregator reads
		if slices.Contains(groupBy, c) || slices.ContainsFunc(aggs, func(s AggSpec) bool { return s.Col == c }) {
			cols[c].In = 0
		}
	}
	agg := NewAggregator(r.Schema, groupBy, aggs)
	a.Fold(agg, a.Whole(r.Schema, r.Rows), Tuples{}, nil, nil, cols)
	return agg.Result()
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
