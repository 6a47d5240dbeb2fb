// Package semstore implements PayLess's semantic store (paper §3 step 5.3,
// §4.2): every RESTful query issued to the data market is remembered as a
// box over the table's queryable space, and its result rows are materialised
// (deduplicated, never evicted — "we deliberately use cheap storage space to
// store all intermediate results") exactly once, inside the store itself.
//
// The store answers the two questions semantic query rewriting needs:
// which part of a prospective call's box is already covered (the remainder
// region V of §4.2), and what rows does the store hold inside a box. Entries
// are timestamped so the client's consistency level (§4.3) can restrict
// reuse to results younger than a window.
//
// The store stays fast at tens of thousands of recorded calls:
//
//   - Coverage entries are compacted on Record — a new box fully covered by
//     equally-fresh stored coverage is dropped, stored boxes absorbed by a
//     newer box are pruned, and axis-adjacent boxes differing on a single
//     dimension are merged (at the older of the two timestamps, so a
//     consistency window can only ever exclude more, never less).
//   - Lookups are indexed: per-table per-dimension edge indexes prune the
//     stored boxes to those overlapping the query before any subtraction,
//     with a fast path when a single stored box contains the query outright.
//   - SelectIn lists the ids of the rows in a box through a row index per
//     dimension (package rowidx) instead of scanning every stored row.
//   - The rows are stored as columns, each cell once: a queryable column
//     is the coordinate column its row index keeps (a numeric coordinate is
//     the value, a String domain's is the value's index in the domain), any
//     other column a list of values.
//   - A Record costs what it adds, not what the table already holds. Each
//     column is an append-only chunk list (package chunk), whose chunks are
//     allocated once and never copied, and the coverage entries are
//     append-only too: a snapshot shares them with the writer, which writes
//     only past the snapshot's length. The row and edge indexes are
//     log-structured runs, so each id is copied O(log n) times over the
//     table's life, and the tombstone bitset is copied only by a Record that
//     kills an entry a snapshot can see.
//
// Compaction and indexing never change answers: the union of stored
// coverage is preserved exactly, and freshness is only ever lost downward
// (a merged box carries the older timestamp), so the worst case is an
// over-fetch of already-owned data — never an under-covered reuse.
package semstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"payless/internal/catalog"
	"payless/internal/chunk"
	"payless/internal/obs"
	"payless/internal/region"
	"payless/internal/rowidx"
	"payless/internal/storage"
	"payless/internal/value"
)

// bigBoxLimit is how many of the largest stored boxes are kept in the
// containment fast-path list checked before any index walk.
const bigBoxLimit = 8

// rebuildMinDead and rebuildDeadFraction control when a table's entry slice
// is compacted in memory: once tombstones outnumber rebuildDeadFraction of
// the slice (and at least rebuildMinDead exist), indexes are rebuilt over
// the survivors.
const (
	rebuildMinDead      = 16
	rebuildDeadFraction = 2 // rebuild when dead*rebuildDeadFraction > len(entries)
)

type entry struct {
	box region.Box
	at  time.Time
}

// dimIdx is the coverage index on one queryable dimension: a rowidx.Dim
// over the entries' low edges there (Col holds entry id's Lo, Runs sort the
// ids by (Lo, id)), plus an upper bound on any stored box's width on the
// axis. A box overlaps the query on the axis only if its Lo falls in
// [q.Lo - maxWidth, q.Hi), so each run's candidates are one contiguous span
// found by two binary searches — the lookup walks whichever dimension
// yields the fewest.
type dimIdx struct {
	rowidx.Dim
	// maxWidth bounds the width of every indexed (live or dead) box on this
	// axis; tombstoning never shrinks it, rebuilds recompute it.
	maxWidth int64
}

type tableStore struct {
	meta *catalog.Table
	// entries is the stored coverage, appended to until a rebuild compacts
	// it. The writer appends past the published length, into spare capacity
	// no snapshot reads, so clones share the array. tombs marks the dead
	// entries, bit id%64 of word id/64 (words past its end are all live);
	// the writer copies it before it sets a bit in one of its first
	// sharedTombs words, the ones a published snapshot can read.
	entries     []entry
	tombs       []uint64
	sharedTombs int
	alive       int
	dead        int
	// dims index the entries on each dimension of the table's queryable
	// space, which every entry's box has (validateBatch and decodeSnapshot
	// refuse any other).
	dims []dimIdx
	// big lists up to bigBoxLimit largest live boxes by volume — the O(1)
	// containment fast path for queries inside a large stored region.
	big []int
	// The n deduplicated materialised rows are held as columns, column i
	// where cols[i] places it. rowIdx indexes the rows on each queryable
	// dimension: a column of their coordinates there (coordsOf resolves
	// exactly one per dimension) and runs of their ids, 12 bytes per row and
	// dimension. vals[i] holds column i's cells when it is no coordinate
	// column. seen keys the rows under value.ExactKey for deduplication;
	// in and scratch are the writer's rows, one a recorded row and one
	// rebuilt for seen to compare with. Ids are int32: seen already bounds
	// them below 2^29.
	n           int
	cols        []column
	rowIdx      []rowidx.Dim
	vals        []chunk.List[value.Value]
	seen        *value.KeyTable
	in, scratch value.Row
}

// column places a stored column: on coordinate column dim of the row
// index, read back through dom for a categorical attribute whose domain is
// all String values (equal strings are one dictionary id, so the domain
// index gives back the very value); or, with dim −1, in its value column.
type column struct {
	dim int
	dom []value.Value
}

// layout places every queryable numeric or String-domain column on its
// coordinate column, and every other in a value column.
func layout(meta *catalog.Table) []column {
	cols, dim := make([]column, len(meta.Attrs)), 0
	for i := range meta.Attrs {
		a := &meta.Attrs[i]
		cols[i].dim = -1
		if a.Binding == catalog.Output {
			continue
		}
		if a.Class == catalog.NumericAttr {
			cols[i].dim = dim
		} else if !slices.ContainsFunc(a.Domain, func(v value.Value) bool { return v.K != value.String }) {
			cols[i] = column{dim, a.Domain}
		}
		dim++
	}
	return cols
}

// storeSnap is one immutable published state of the store: a map from market
// table name to an immutable tableStore. Readers load the current snapshot
// with a single atomic pointer read and never take a lock; writers build the
// next snapshot from a clone and install it atomically. A reader therefore
// always sees an internally consistent state — the one produced by some
// prefix of the Record history — and never blocks behind a writer.
type storeSnap struct {
	tables map[string]*tableStore
}

// Store is the semantic store. It is safe for concurrent use: reads
// (Coverage, Remainder, Covered, SelectIn, Boxes, Save and the entry and
// row counts) are lock-free snapshot reads that scale with cores, writes
// (Record, Load) serialise on a writer mutex and publish copy-on-write
// snapshots.
type Store struct {
	db      *storage.DB
	metrics *obs.Metrics

	// wmu serialises writers. snap is the published immutable state; it is
	// only ever replaced (never mutated) while wmu is held.
	wmu  sync.Mutex
	snap atomic.Pointer[storeSnap]

	// dur is non-nil when EnableDurability attached a write-ahead log; every
	// Record then appends to the log before mutating billing-visible state.
	dur *durState

	// recorded counts successful Record calls over the store's lifetime
	// (including records replayed from the WAL); snapshots embed it so
	// recovery knows which log frames a snapshot already covers.
	recorded atomic.Int64
}

// New returns an empty semantic store beside db, the buyer's own tables.
func New(db *storage.DB) *Store {
	s := &Store{db: db}
	s.snap.Store(&storeSnap{tables: make(map[string]*tableStore)})
	return s
}

// SetMetrics attaches a metrics sink; lookup and compaction events are
// reported to it. Call before the store is shared across goroutines.
func (s *Store) SetMetrics(m *obs.Metrics) { s.metrics = m }

// DB exposes the buyer's local tables, which queries join against the
// purchased ones.
func (s *Store) DB() *storage.DB { return s.db }

// table returns the published tableStore for a market table name, or nil.
// The result is immutable; callers read it without locking.
func (s *Store) table(table string) *tableStore {
	return s.snap.Load().tables[table]
}

// cloneTableFor returns a writable copy of the table's published state (or a
// fresh empty one) for the writer to mutate before publishing. Caller holds
// s.wmu.
func cloneTableFor(snap *storeSnap, meta *catalog.Table) *tableStore {
	if ts, ok := snap.tables[meta.Name]; ok {
		return ts.clone()
	}
	d := meta.NumDims()
	return &tableStore{
		meta:    meta,
		dims:    make([]dimIdx, d),
		cols:    layout(meta),
		rowIdx:  make([]rowidx.Dim, d),
		vals:    make([]chunk.List[value.Value], len(meta.Schema)),
		seen:    value.NewKeyTable(value.ExactKey, nil, 0),
		in:      make(value.Row, len(meta.Schema)),
		scratch: make(value.Row, len(meta.Schema)),
	}
}

// clone returns a writable copy of an immutable published tableStore. It
// copies only the big-box list, the headers of the index runs and of the
// value columns: the entries and tombs arrays, the runs themselves and the
// columns' chunks are shared. The writer appends to entries and to the
// append-only chunk lists (the columns) only past the published length,
// which no snapshot reads (chunk.List), never writes a published run, and
// copies tombs before setting a bit a snapshot can read (tombstone). The
// seen index and the scratch rows are writer-only state (readers never
// consult them) and are shared across clones.
func (ts *tableStore) clone() *tableStore {
	cp := *ts
	cp.sharedTombs = len(ts.tombs)
	cp.big = slices.Clone(ts.big)
	cp.dims = make([]dimIdx, len(ts.dims))
	for d, di := range ts.dims {
		cp.dims[d] = dimIdx{di.Clone(), di.maxWidth}
	}
	cp.rowIdx = make([]rowidx.Dim, len(ts.rowIdx))
	for d, rd := range ts.rowIdx {
		cp.rowIdx[d] = rd.Clone()
	}
	cp.vals = slices.Clone(ts.vals)
	return &cp
}

// publish installs a new snapshot that replaces (or adds) the given tables.
// Caller holds s.wmu.
func (s *Store) publish(prev *storeSnap, updated ...*tableStore) {
	next := &storeSnap{tables: make(map[string]*tableStore, len(prev.tables)+len(updated))}
	for k, v := range prev.tables {
		next.tables[k] = v
	}
	for _, ts := range updated {
		next.tables[ts.meta.Name] = ts
	}
	s.snap.Store(next)
}

// RecordResult reports what one Record call did to the store.
type RecordResult struct {
	// Added is how many result rows were new — not already materialised
	// from an earlier call — the trace's measure of how much of the bill
	// bought data the buyer did not yet own.
	Added int
	// Dropped reports that the call's coverage entry was not stored because
	// existing, at-least-as-fresh coverage already contains its box.
	Dropped bool
	// Absorbed counts stored entries pruned because the new box contains
	// them and is at least as fresh.
	Absorbed int
	// Merged counts merge steps that fused the new box with an axis-adjacent
	// stored box.
	Merged int
	// Synced reports that the call's WAL frame (and all before it) was
	// fsynced before Record returned — always true under a per-call sync
	// policy, true at batch boundaries under batched, never otherwise.
	// Meaningful only in durable mode.
	Synced bool
	// WALBytes is the appended WAL payload size; 0 when not durable.
	WALBytes int
	// WALMicros is the wall-clock time the WAL append (including any fsync)
	// took; 0 when not durable.
	WALMicros int64
}

// Compacted is the total number of stored entries the call removed.
func (r RecordResult) Compacted() int { return r.Absorbed + r.Merged }

// Record stores the outcome of an executed call: its box as coverage, and
// the batch's rows, deduplicated. The new rows' cells are copied into the
// table's columns, so the store keeps nothing of the batch, which it never
// writes. Each column must be of its schema column's kind or hold only
// NULLs.
//
// Record is atomic with respect to the coverage index: the columns' kinds
// and every row's coordinates are checked up front, and only when all of
// them are good are entries, columns and the row index mutated. A mid-batch
// bad row therefore leaves the store exactly as it was — it can never claim
// coverage for rows it failed to materialise.
func (s *Store) Record(meta *catalog.Table, b region.Box, batch value.Batch, at time.Time) (RecordResult, error) {
	var res RecordResult
	if err := validateBatch(meta, b, batch); err != nil {
		return res, err
	}
	var buf [8][]int64
	coords, err := coordsOf(buf[:0], meta, batch)
	if err != nil {
		return res, err
	}
	batch = validUTF8(meta, batch)
	if d := s.dur; d != nil {
		return d.record(s, meta, b, batch, coords, at)
	}
	s.applyRecord(meta, b, batch, coords, at, &res)
	s.recorded.Add(1)
	return res, nil
}

// validateBatch checks a Record call's shape and that each column is of its
// schema column's kind or all NULL, once a column.
func validateBatch(meta *catalog.Table, b region.Box, batch value.Batch) error {
	if err := checkDims(meta, b.D()); err != nil {
		return err
	}
	switch {
	case batch.N == 0:
		return nil
	case b.Empty():
		return fmt.Errorf("semstore: non-empty result for empty box on %s", meta.Name)
	case len(batch.Cols) != len(meta.Schema):
		return fmt.Errorf("semstore: %s: batch has %d columns, schema has %d",
			meta.Name, len(batch.Cols), len(meta.Schema))
	}
	for i, col := range meta.Schema {
		if v := &batch.Cols[i]; v.Kind != col.Type {
			for r := range batch.N {
				if !v.IsNull(r) {
					return fmt.Errorf("semstore: %s: %s cell in %s column %s", meta.Name, v.Kind, col.Type, col.Name)
				}
			}
		}
	}
	return nil
}

// coordsOf appends to dst every row's queryable coordinates, a column at a
// time: coords[k] holds each row's on dimension k. A numeric column of Ints
// without NULLs is its own coordinates; the others are resolved into one
// slab. It fails unless every coordinate resolves, touching no state.
func coordsOf(dst [][]int64, meta *catalog.Table, batch value.Batch) ([][]int64, error) {
	n, own := batch.N, func(a *catalog.Attribute, v *value.Vector) bool {
		return a.Class == catalog.NumericAttr && v.Kind == value.Int && !v.HasNulls(batch.N)
	}
	if n == 0 {
		return dst, nil
	}
	resolved := 0
	for i := range meta.Attrs {
		if a := &meta.Attrs[i]; a.Binding != catalog.Output && !own(a, &batch.Cols[i]) {
			resolved++
		}
	}
	slab := make([]int64, resolved*n)
	for i := range meta.Attrs {
		a, v := &meta.Attrs[i], &batch.Cols[i]
		switch {
		case a.Binding == catalog.Output:
			continue
		case own(a, v):
			dst = append(dst, v.Ints[:n])
			continue
		}
		cs := slab[:n:n]
		for r := range cs {
			c, err := a.Coord(v.At(r))
			if err != nil {
				return nil, err
			}
			cs[r] = c
		}
		dst, slab = append(dst, cs), slab[n:]
	}
	return dst, nil
}

// validUTF8 returns batch with each String output cell that is not valid
// UTF-8 written as the wire, snapshot and WAL codecs write it, every stray
// byte U+FFFD, so it reads back the same live, loaded and replayed. A column
// is copied only where a cell changes, and the batch's own are never
// written. Queryable String cells are domain values, which catalog.Register
// holds to valid UTF-8.
func validUTF8(meta *catalog.Table, batch value.Batch) value.Batch {
	copied := false
	for i, a := range meta.Attrs {
		if a.Binding != catalog.Output || batch.N == 0 || batch.Cols[i].Kind != value.String {
			continue
		}
		strs := batch.Cols[i].Strs[:batch.N]
		r := slices.IndexFunc(strs, func(v value.Value) bool { return !utf8.ValidString(v.Str()) })
		if r < 0 {
			continue
		}
		if !copied {
			batch.Cols, copied = slices.Clone(batch.Cols), true
		}
		strs = slices.Clone(strs)
		for ; r < len(strs); r++ {
			if s := strs[r].Str(); !utf8.ValidString(s) {
				strs[r] = value.NewString(strings.Map(func(r rune) rune { return r }, s))
			}
		}
		batch.Cols[i].Strs = strs
	}
	return batch
}

// checkDims refuses a coverage box of d dimensions unless the table's boxes
// have d.
func checkDims(meta *catalog.Table, d int) error {
	if n := meta.NumDims(); d != n {
		return fmt.Errorf("semstore: %s: box has %d dimensions, the table's have %d", meta.Name, d, n)
	}
	return nil
}

// applyRecord installs one validated call — the state-mutating half of
// Record, also the WAL replay entry point (replay must not re-append).
func (s *Store) applyRecord(meta *catalog.Table, b region.Box, batch value.Batch, coords [][]int64, at time.Time, res *RecordResult) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	snap := s.snap.Load()
	ts := cloneTableFor(snap, meta)
	res.Added = ts.addRows(batch, coords)
	if !b.Empty() {
		res.Dropped, res.Absorbed, res.Merged = ts.insertEntry(b.Clone(), at)
		ts.maybeRebuild()
		if m := s.metrics; m != nil {
			m.ObserveStoreCompaction(res.Dropped, res.Absorbed, res.Merged)
		}
	}
	s.publish(snap, ts)
}

// addRows stores the rows of the validated batch the table does not hold
// yet (value.ExactKey), given coords[k], every row's coordinate on
// dimension k, and indexes them as one batch, sorted into one run per
// dimension. Their coordinates and other cells are appended to the
// columns' chunk lists a column at a time, so nothing the table already
// holds is copied. It returns how many rows were new.
func (ts *tableStore) addRows(batch value.Batch, coords [][]int64) int {
	// The i-th new row is batch row keep[i], or row i while keep is nil: the
	// list is made at the first duplicate, so a batch of new rows makes none.
	first, n := ts.n, 0
	var keep []int32
	row := func(i int) int {
		if keep == nil {
			return i
		}
		return int(keep[i])
	}
	stored := func(id int) value.Row {
		if id >= first {
			return batch.Row(row(id-first), ts.scratch)
		}
		return ts.row(ts.scratch, id)
	}
	ts.seen.Grow(batch.N)
	for r := range batch.N {
		switch {
		case ts.seen.Insert(stored, batch.Row(r, ts.in), first+n) < 0:
			if keep != nil {
				keep = append(keep, int32(r))
			}
			n++
		case keep == nil:
			keep = make([]int32, n, batch.N)
			for i := range keep {
				keep[i] = int32(i)
			}
		}
	}
	for k, cs := range coords {
		col := &ts.rowIdx[k].Col
		if keep == nil {
			col.AppendSlice(cs)
			continue
		}
		for _, r := range keep {
			col.Append(cs[r])
		}
	}
	for i, c := range ts.cols {
		if c.dim >= 0 {
			continue
		}
		for j := range n {
			ts.vals[i].Append(batch.At(row(j), i))
		}
	}
	ts.n += n
	for k := range ts.rowIdx {
		ts.rowIdx[k].Add(first, n)
	}
	return n
}

// column returns column i as the table holds it.
func (ts *tableStore) column(i int) storage.Column {
	switch c := ts.cols[i]; {
	case c.dim < 0:
		return storage.ValueColumn(ts.vals[i])
	case c.dom != nil:
		return storage.DomainColumn(ts.rowIdx[c.dim].Col, c.dom)
	default:
		return storage.IntColumn(ts.rowIdx[c.dim].Col)
	}
}

// row rebuilds stored row id into dst, which has a cell per column.
func (ts *tableStore) row(dst value.Row, id int) value.Row {
	for i := range dst {
		c := ts.column(i)
		dst[i] = c.At(id)
	}
	return dst
}

// insertEntry adds a coverage box, compacting as it goes. Caller holds the
// write lock and passes an owned (cloned) box.
func (ts *tableStore) insertEntry(b region.Box, at time.Time) (dropped bool, absorbed, merged int) {
	// Drop-new: if a stored box at least as fresh already contains the new
	// box, the new entry adds no coverage and no freshness.
	for _, id := range ts.candidates(b) {
		e := &ts.entries[id]
		if !ts.isDead(id) && !e.at.Before(at) && e.box.Contains(b) {
			return true, 0, 0
		}
	}
	// Absorb: stored boxes contained in the new box and no fresher than it
	// are now redundant.
	for _, id := range ts.candidates(b) {
		e := &ts.entries[id]
		if !ts.isDead(id) && !at.Before(e.at) && b.Contains(e.box) {
			ts.tombstone(id)
			absorbed++
		}
	}
	cur := ts.addEntry(b, at)
	// Merge cascade: fuse with axis-adjacent boxes (equal on all dimensions
	// but one, touching on that one) until no neighbour fits. The merged
	// entry keeps the older timestamp — freshness is only ever understated.
	for {
		e := ts.entries[cur]
		found := -1
		var mergedBox region.Box
		for _, id := range ts.candidates(expand(e.box)) {
			if id == cur || ts.isDead(id) {
				continue
			}
			o := &ts.entries[id]
			if mb, ok := mergeBoxes(e.box, o.box); ok {
				found, mergedBox = id, mb
				break
			}
		}
		if found < 0 {
			return dropped, absorbed, merged
		}
		o := ts.entries[found]
		mergedAt := e.at
		if o.at.Before(mergedAt) {
			mergedAt = o.at
		}
		ts.tombstone(cur)
		ts.tombstone(found)
		cur = ts.addEntry(mergedBox, mergedAt)
		merged++
	}
}

// mergeBoxes returns the union of a and b when they differ on exactly one
// dimension and touch on it (disjoint, axis-adjacent). Identical boxes
// merge trivially.
func mergeBoxes(a, b region.Box) (region.Box, bool) {
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
	if diff < 0 {
		return a.Clone(), true
	}
	x, y := a.Dims[diff], b.Dims[diff]
	if x.Hi != y.Lo && y.Hi != x.Lo {
		return region.Box{}, false
	}
	out := a.Clone()
	out.Dims[diff] = region.Interval{Lo: min(x.Lo, y.Lo), Hi: max(x.Hi, y.Hi)}
	return out, true
}

// expand grows a box by one coordinate on every edge (saturating), so an
// overlap query against it also finds boxes that merely touch b.
func expand(b region.Box) region.Box {
	out := b.Clone()
	for i := range out.Dims {
		if out.Dims[i].Lo > -1<<62 {
			out.Dims[i].Lo--
		}
		if out.Dims[i].Hi < 1<<62 {
			out.Dims[i].Hi++
		}
	}
	return out
}

// addEntry appends a live entry and pushes its id onto each dimension's
// runs. Caller holds the write lock.
func (ts *tableStore) addEntry(b region.Box, at time.Time) int {
	id := len(ts.entries)
	ts.entries = append(ts.entries, entry{box: b, at: at})
	ts.alive++
	one := rowidx.Run{int32(id)}
	for d := range ts.dims {
		di := &ts.dims[d]
		di.Col.Append(b.Dims[d].Lo)
		di.Push(one)
		di.maxWidth = max(di.maxWidth, b.Dims[d].Width())
	}
	// Maintain the big-box fast-path list.
	vol := b.Volume()
	pos := len(ts.big)
	for i, bid := range ts.big {
		if vol > ts.entries[bid].box.Volume() {
			pos = i
			break
		}
	}
	if pos < bigBoxLimit {
		ts.big = append(ts.big, 0)
		copy(ts.big[pos+1:], ts.big[pos:])
		ts.big[pos] = id
		if len(ts.big) > bigBoxLimit {
			ts.big = ts.big[:bigBoxLimit]
		}
	}
	return id
}

// isDead reports whether entry id is a tombstone.
func (ts *tableStore) isDead(id int) bool {
	w := id >> 6
	return w < len(ts.tombs) && ts.tombs[w]&(1<<(id&63)) != 0
}

// tombstone marks entry id dead. Tombstones keep entry ids stable between
// index rebuilds. The bit's word is copied first if a published snapshot
// can read it; a word past the snapshots' is the writer's already.
func (ts *tableStore) tombstone(id int) {
	if ts.isDead(id) {
		return
	}
	w := id >> 6
	if w < ts.sharedTombs {
		ts.tombs, ts.sharedTombs = slices.Clone(ts.tombs), 0
	}
	if n := len(ts.tombs); w >= n {
		ts.tombs = slices.Grow(ts.tombs, w+1-n)[:w+1]
		clear(ts.tombs[n:])
	}
	ts.tombs[w] |= 1 << (id & 63)
	ts.alive--
	ts.dead++
	for i, bid := range ts.big {
		if bid == id {
			ts.big = append(ts.big[:i], ts.big[i+1:]...)
			break
		}
	}
}

// maybeRebuild compacts the entry slice and rebuilds the edge indexes once
// tombstones dominate: the survivors are renumbered in order, and each
// dimension's ids are sorted into one run. Reports whether a rebuild
// happened.
func (ts *tableStore) maybeRebuild() bool {
	if ts.dead < rebuildMinDead || ts.dead*rebuildDeadFraction <= len(ts.entries) {
		return false
	}
	live := make([]entry, 0, ts.alive)
	for id, e := range ts.entries {
		if !ts.isDead(id) {
			live = append(live, e)
		}
	}
	ts.entries, ts.tombs, ts.sharedTombs = live, nil, 0
	ts.dead = 0
	ts.alive = len(live)
	for d := range ts.dims {
		di := dimIdx{} // new chunks: snapshots keep reading the old ones
		for id := range live {
			di.Col.Append(live[id].box.Dims[d].Lo)
			di.maxWidth = max(di.maxWidth, live[id].box.Dims[d].Width())
		}
		di.Add(0, len(live))
		ts.dims[d] = di
	}
	ts.big = nil
	// Recompute the big-box list over the survivors.
	type bv struct {
		id  int
		vol float64
	}
	bigs := make([]bv, len(ts.entries))
	for id := range ts.entries {
		bigs[id] = bv{id, ts.entries[id].box.Volume()}
	}
	sort.SliceStable(bigs, func(i, j int) bool { return bigs[i].vol > bigs[j].vol })
	if len(bigs) > bigBoxLimit {
		bigs = bigs[:bigBoxLimit]
	}
	for _, b := range bigs {
		ts.big = append(ts.big, b.id)
	}
	return true
}

// candidates returns live-or-dead entry ids whose box could overlap q, in
// (Lo, id) order on the dimension whose runs hold the fewest ids with a Lo
// that allows an overlap. Callers must still check tombstones and true
// overlap.
func (ts *tableStore) candidates(q region.Box) []int {
	if q.D() != len(ts.dims) || len(ts.dims) == 0 {
		// No usable index: every entry is a candidate.
		out := make([]int, len(ts.entries))
		for id := range out {
			out[id] = id
		}
		return out
	}
	// On each axis an overlapping box must have Lo < q.Hi and Lo > q.Lo -
	// maxWidth (else even the widest stored box would end at or before
	// q.Lo): one span of each run. Pick the axis with the fewest.
	best, bestLen := 0, -1
	var bestIv region.Interval
	for k := range ts.dims {
		di := &ts.dims[k]
		iv := region.Interval{Lo: math.MinInt64, Hi: q.Dims[k].Hi}
		if loMin := q.Dims[k].Lo - di.maxWidth; loMin <= q.Dims[k].Lo { // no underflow
			iv.Lo = loMin + 1
		}
		n := 0
		for _, run := range di.Runs {
			if n += len(di.Span(run, iv)); bestLen >= 0 && n >= bestLen {
				break // this axis cannot win
			}
		}
		if bestLen < 0 || n < bestLen {
			best, bestLen, bestIv = k, n, iv
		}
	}
	di := &ts.dims[best]
	out := make([]int, 0, bestLen)
	spans := 0
	for _, run := range di.Runs {
		span := di.Span(run, bestIv)
		if len(span) > 0 {
			spans++
		}
		for _, id := range span {
			if boxesOverlap(ts.entries[id].box, q) {
				out = append(out, int(id))
			}
		}
	}
	if spans > 1 {
		col := di.Col
		slices.SortFunc(out, func(a, b int) int {
			return cmp.Or(cmp.Compare(col.At(a), col.At(b)), cmp.Compare(a, b))
		})
	}
	return out
}

// boxesOverlap is Box.Overlaps for same-dimensionality, non-empty boxes (an
// empty interval fails its own check), without the dimensionality check and
// the volume product: it runs once per entry of the walked index segment.
func boxesOverlap(a, b region.Box) bool {
	for i := range a.Dims {
		if a.Dims[i].Lo >= b.Dims[i].Hi || b.Dims[i].Lo >= a.Dims[i].Hi {
			return false
		}
	}
	return true
}

// LookupStats describes one indexed coverage lookup.
type LookupStats struct {
	// Entries is the number of live stored entries for the table.
	Entries int
	// Candidates is how many survived index pruning (the boxes actually
	// handed to subtraction).
	Candidates int
	// Pruned is Entries - Candidates.
	Pruned int
	// FastPath reports that a single stored box contains the query — the
	// lookup returned just that box and the remainder is empty.
	FastPath bool
	// Micros is the lookup's wall-clock duration.
	Micros int64
}

// Coverage returns the stored boxes (cloned) that overlap q and were
// fetched at or after since — the pruned covered set the rewriter needs —
// together with lookup statistics. When a single stored box contains q
// outright, only that box is returned and stats.FastPath is set: q's
// remainder is empty.
//
// Coverage is a lock-free snapshot read: it sees the store as of some
// consistent point in the Record history and never blocks behind a writer.
func (s *Store) Coverage(table string, q region.Box, since time.Time) ([]region.Box, LookupStats) {
	start := time.Now()
	var out []region.Box
	var st LookupStats
	if ts := s.table(table); ts != nil {
		out, st = ts.coverage(q, since)
	}
	st.Micros = time.Since(start).Microseconds()
	if m := s.metrics; m != nil {
		m.ObserveStoreLookup(st.Micros, st.Pruned, st.FastPath)
	}
	return out, st
}

// coverage is Coverage's read of one published table state, without the
// timing.
func (ts *tableStore) coverage(q region.Box, since time.Time) ([]region.Box, LookupStats) {
	st := LookupStats{Entries: ts.alive}
	var out []region.Box
	// Big-box fast path first: a handful of containment checks against the
	// largest stored regions.
	for _, id := range ts.big {
		e := &ts.entries[id]
		if ts.isDead(id) || (!since.IsZero() && e.at.Before(since)) {
			continue
		}
		if e.box.Contains(q) {
			st.FastPath = true
			st.Candidates = 1
			out = []region.Box{e.box.Clone()}
			break
		}
	}
	if !st.FastPath {
		for _, id := range ts.candidates(q) {
			e := &ts.entries[id]
			if ts.isDead(id) || (!since.IsZero() && e.at.Before(since)) {
				continue
			}
			if e.box.Contains(q) {
				st.FastPath = true
				st.Candidates = 1
				out = []region.Box{e.box.Clone()}
				break
			}
			out = append(out, e.box.Clone())
		}
		if !st.FastPath {
			st.Candidates = len(out)
		}
	}
	st.Pruned = max(st.Entries-st.Candidates, 0)
	return out, st
}

// Boxes returns clones of the stored boxes of the table fetched at or after
// since. A zero since returns everything. Callers own the result — mutating
// it cannot corrupt recorded coverage.
func (s *Store) Boxes(table string, since time.Time) []region.Box {
	ts := s.table(table)
	if ts == nil {
		return nil
	}
	return ts.boxes(since)
}

func (ts *tableStore) boxes(since time.Time) []region.Box {
	var out []region.Box
	for id, e := range ts.entries {
		if ts.isDead(id) || (!since.IsZero() && e.at.Before(since)) {
			continue
		}
		out = append(out, e.box.Clone())
	}
	return out
}

// EntryCount returns how many live coverage entries the table has. With
// compaction this is at most — typically far below — the number of calls
// recorded.
func (s *Store) EntryCount(table string) int {
	ts := s.table(table)
	if ts == nil {
		return 0
	}
	return ts.alive
}

// Remainder returns the part of box q not covered by the table's stored
// boxes fetched at or after since — the region V of §4.2, decomposed into
// disjoint elementary boxes. The stored boxes are pruned through the
// coverage index first.
func (s *Store) Remainder(table string, q region.Box, since time.Time) []region.Box {
	boxes, st := s.Coverage(table, q, since)
	if st.FastPath {
		return nil
	}
	return region.Subtract(q, boxes)
}

// Covered reports whether box q is fully covered by stored results —
// a zero-price relation in the sense of Theorem 2.
func (s *Store) Covered(table string, q region.Box, since time.Time) bool {
	return len(s.Remainder(table, q, since)) == 0
}

// SelectIn appends to *ids the ids of the table's rows inside each box in
// turn, each box's in insertion order, fills cols, a column per schema
// column, with the table's columns as one snapshot holds them, and returns
// how many rows that snapshot holds. A single box that selects every row
// appends nothing and reports all.
func (s *Store) SelectIn(meta *catalog.Table, boxes []region.Box, ids *[]int32, cols []storage.Column) (n int, all bool) {
	ts := s.table(meta.Name)
	if ts == nil {
		return 0, false
	}
	for i := range cols {
		cols[i] = ts.column(i)
	}
	for _, q := range boxes {
		sel := rowidx.Select(ts.rowIdx, ts.n, q, ids)
		if sel.All > 0 && len(boxes) == 1 {
			return ts.n, true
		}
		*ids = sel.AppendTo(*ids)
		sel.Release()
	}
	return ts.n, false
}

// StoredRowCount returns the total number of materialised rows for a table.
func (s *Store) StoredRowCount(table string) int {
	ts := s.table(table)
	if ts == nil {
		return 0
	}
	return ts.n
}
