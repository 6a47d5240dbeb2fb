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
//   - RowsIn/CountIn use per-dimension sorted coordinate indexes instead of
//     scanning every materialised row; the indexes are log-structured, so a
//     Record costs what it adds, not what the table already holds.
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
	mathbits "math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"payless/internal/catalog"
	"payless/internal/obs"
	"payless/internal/region"
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
	// rows is the exact number of market rows inside box at fetch time;
	// it gives the optimizer exact (not estimated) prices for covered space.
	rows int64
	// dead marks an entry absorbed or merged away by compaction. Tombstones
	// keep entry ids stable between index rebuilds.
	dead bool
}

// dimIdx holds, for one queryable dimension, the entry ids ordered by their
// box's low edge on that axis, plus an upper bound on any stored box's
// width there. A box overlaps the query on the axis only if its Lo falls in
// [q.Lo - maxWidth, q.Hi), so the candidate set is a contiguous byLo
// segment found by two binary searches — the lookup walks whichever
// dimension yields the shortest segment.
type dimIdx struct {
	byLo []int // entry ids sorted by (Dims[d].Lo, id)
	// maxWidth bounds the width of every indexed (live or dead) box on this
	// axis; tombstoning never shrinks it, rebuilds recompute it.
	maxWidth int64
}

// rowEntry places one materialised row on one dimension.
type rowEntry struct {
	coord int64
	id    int
}

// rowRun is one sorted run of a dimension's coordinate index: the entries of
// a contiguous range of row ids in (coord, id) order. A run is never written
// once its table is published, so any number of snapshots may share it.
type rowRun []rowEntry

func byCoordThenID(a, b rowEntry) int {
	if c := cmp.Compare(a.coord, b.coord); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// span returns the run's entries whose coordinate lies in iv.
func (r rowRun) span(iv region.Interval) rowRun {
	l := sort.Search(len(r), func(i int) bool { return r[i].coord >= iv.Lo })
	h := l + sort.Search(len(r)-l, func(i int) bool { return r[l+i].coord >= iv.Hi })
	return r[l:h]
}

// rowDim is the coordinate index of the materialised rows on one queryable
// dimension: sorted runs, oldest first, each more than twice as long as the
// next (the logarithmic method), so n rows make at most ⌊log₂ n⌋+1 runs.
type rowDim []rowRun

// push appends a batch's run and merges the tail while the run before it is
// at most twice as long, newest first (mergeRuns). The runs shrink
// geometrically towards the tail, so every row is copied O(log n) times over
// the life of the table, and a merge leaves only the exact-size merged run
// behind.
func (rd rowDim) push(run rowRun) rowDim {
	rd = append(rd, run)
	j, total := len(rd)-1, len(run)
	for j > 0 && len(rd[j-1]) <= 2*total {
		j--
		total += len(rd[j])
	}
	if j == len(rd)-1 {
		return rd
	}
	rd[j] = mergeRuns(rd[j:], total)
	clear(rd[j+1:]) // or the header array would keep the inputs alive
	return rd[:j+1]
}

// mergeRuns merges adjacent runs, oldest first, into one run of total
// entries, newest first and two at a time inside the result itself: the
// newest run is copied to its end, then each older run is merged with what
// follows it into the space just before. The write position never passes
// the unread newer entries, so no intermediate run is allocated. Later runs
// hold higher ids, so taking the older run's entry on a coordinate tie keeps
// equal coordinates in id order.
func mergeRuns(runs []rowRun, total int) rowRun {
	out := make(rowRun, total)
	start := total - len(runs[len(runs)-1])
	copy(out[start:], runs[len(runs)-1])
	for r := len(runs) - 2; r >= 0; r-- {
		a, b := runs[r], out[start:]
		w, i, j := start-len(a), 0, 0
		for ; i < len(a); w++ {
			if j == len(b) || a[i].coord <= b[j].coord {
				out[w] = a[i]
				i++
			} else {
				out[w] = b[j]
				j++
			}
		}
		start -= len(a) // b[j:] is already in place
	}
	return out
}

// radixCutoff is the batch length from which sortRun radix-sorts: below it
// slices.SortFunc is faster than clearing and walking the digit counts. On
// BenchmarkSortRun the two cross between 32 and 64 entries.
const radixCutoff = 64

// sortRun sorts a batch's run, built in id order, into (coord, id) order.
func sortRun(run rowRun) {
	if len(run) < radixCutoff {
		slices.SortFunc(run, byCoordThenID)
		return
	}
	radixSort(run)
}

// radixSort is an LSD radix sort of run on coord−min, one byte per pass over
// the bytes the run's span needs. It is stable, so a run built in id order
// comes out in (coord, id) order.
func radixSort(run rowRun) {
	lo, hi := run[0].coord, run[0].coord
	for _, e := range run {
		lo, hi = min(lo, e.coord), max(hi, e.coord)
	}
	if lo == hi {
		return // one coordinate, as on a single-value categorical axis: id order is the order
	}
	span := uint64(hi - lo) // exact even when hi−lo overflows int64
	src, dst := run, make(rowRun, len(run))
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		var count [256]int
		for _, e := range src {
			count[uint8(uint64(e.coord-lo)>>shift)]++
		}
		pos := 0
		for b, c := range count {
			count[b] = pos
			pos += c
		}
		for _, e := range src {
			b := uint8(uint64(e.coord-lo) >> shift)
			dst[count[b]] = e
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &run[0] { // an odd number of passes
		copy(run, src)
	}
}

type tableStore struct {
	meta    *catalog.Table
	entries []entry
	alive   int
	dead    int
	// dims index entries whose box dimensionality matches the table's
	// queryable space; misc holds the (rare) rest, always scanned.
	dims []dimIdx
	misc []int
	// big lists up to bigBoxLimit largest live boxes by volume — the O(1)
	// containment fast path for queries inside a large stored region.
	big []int
	// rows holds the deduplicated materialised rows — the only copy of them —
	// with their queryable coordinates precomputed: row id's are
	// coords[id*d:(id+1)*d], d = len(rowIdx) (validateRows resolves exactly
	// one per dimension). seen indexes the rows by value.ExactKey hash for
	// deduplication and rowIdx per dimension.
	rows   []value.Row
	coords []int64
	seen   *value.HashIndex
	rowIdx []rowDim
	// epoch counts the Records applied to this table (including WAL replay).
	// The plan cache snapshots it at compile time and discards any skeleton
	// whose tables have moved on — new coverage can flip the winning plan.
	epoch uint64
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
// (Coverage, Remainder, RowsIn, CountIn, Boxes, Stats, Save) are lock-free
// snapshot reads that scale with cores, writes (Record, Load) serialise on a
// writer mutex and publish copy-on-write snapshots.
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
	d := len(meta.QueryableAttrs())
	return &tableStore{
		meta:   meta,
		seen:   value.NewHashIndex(0),
		dims:   make([]dimIdx, d),
		rowIdx: make([]rowDim, d),
	}
}

// clone returns a writable copy of an immutable published tableStore.
// Everything the mutation path touches in place — coverage entries (appended
// AND tombstoned), edge indexes, the big-box list — is deep-copied. rows and
// coords are append-only, so the clone shares their backing arrays: a writer
// appending at index len(published) never touches a slot any published
// snapshot can read. The row index's runs are immutable, so only the list of
// run headers is copied. The seen index is writer-only state (readers never
// consult it) and is shared across clones.
func (ts *tableStore) clone() *tableStore {
	cp := &tableStore{
		meta:    ts.meta,
		entries: append([]entry(nil), ts.entries...),
		alive:   ts.alive,
		dead:    ts.dead,
		dims:    make([]dimIdx, len(ts.dims)),
		misc:    append([]int(nil), ts.misc...),
		big:     append([]int(nil), ts.big...),
		rows:    ts.rows,
		coords:  ts.coords,
		seen:    ts.seen,
		rowIdx:  make([]rowDim, len(ts.rowIdx)),
		epoch:   ts.epoch,
	}
	for d := range ts.dims {
		cp.dims[d] = dimIdx{
			byLo:     append([]int(nil), ts.dims[d].byLo...),
			maxWidth: ts.dims[d].maxWidth,
		}
	}
	for d := range ts.rowIdx {
		cp.rowIdx[d] = append(rowDim(nil), ts.rowIdx[d]...)
	}
	return cp
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

// Record stores the outcome of an executed call: its box, its exact row
// count, and the rows themselves (copied and deduplicated; the caller keeps
// ownership of rows).
//
// Record is atomic with respect to the coverage index: every row's
// coordinates are validated up front, and only when all of them resolve are
// entries/rows/coords mutated. A mid-batch bad row therefore leaves the
// store exactly as it was — it can never claim coverage for rows it failed
// to materialise.
func (s *Store) Record(meta *catalog.Table, b region.Box, rows []value.Row, at time.Time) (RecordResult, error) {
	var res RecordResult
	coords, err := validateRows(meta, b, rows)
	if err != nil {
		return res, err
	}
	if d := s.dur; d != nil {
		return d.record(s, meta, b, rows, coords, at)
	}
	s.applyRecord(meta, b, rows, coords, at, &res)
	s.recorded.Add(1)
	return res, nil
}

// validateRows checks a Record call's shape and resolves every row's
// queryable coordinates without touching any state: a bad batch fails here
// or not at all.
func validateRows(meta *catalog.Table, b region.Box, rows []value.Row) ([]int64, error) {
	if b.Empty() && len(rows) > 0 {
		return nil, fmt.Errorf("semstore: non-empty result for empty box on %s", meta.Name)
	}
	for _, row := range rows {
		if len(row) != len(meta.Schema) {
			return nil, fmt.Errorf("semstore: %s: row has %d values, schema has %d",
				meta.Name, len(row), len(meta.Schema))
		}
	}
	return rowCoords(meta, rows)
}

// applyRecord installs one validated call — the state-mutating half of
// Record, also the WAL replay entry point (replay must not re-append).
func (s *Store) applyRecord(meta *catalog.Table, b region.Box, rows []value.Row, coords []int64, at time.Time, res *RecordResult) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	snap := s.snap.Load()
	ts := cloneTableFor(snap, meta)
	ts.epoch++
	res.Added = ts.addRows(rows, coords)
	if !b.Empty() {
		res.Dropped, res.Absorbed, res.Merged = ts.insertEntry(b.Clone(), at, int64(len(rows)))
		ts.maybeRebuild()
		if m := s.metrics; m != nil {
			m.ObserveStoreCompaction(res.Dropped, res.Absorbed, res.Merged)
		}
	}
	s.publish(snap, ts)
}

// addRows stores the validated rows the table does not hold yet
// (value.ExactKey) and indexes them as one batch: the new rows are copied
// into one slab and sorted into one run per dimension. It returns how many
// rows were new.
func (ts *tableStore) addRows(rows []value.Row, coords []int64) int {
	first, d := len(ts.rows), len(ts.rowIdx)
	for i, row := range rows {
		h := value.ExactKey.HashRow(row)
		if ts.seen.Lookup(value.ExactKey, ts.rows, row, h) >= 0 {
			continue
		}
		ts.seen.Add(h) // id == len(ts.rows): every stored row is indexed
		ts.rows = append(ts.rows, row)
		ts.coords = append(ts.coords, coords[i*d:(i+1)*d]...)
	}
	fresh := ts.rows[first:]
	if len(fresh) == 0 {
		return 0
	}
	// The caller keeps its rows: replace them by the store's own copies. No
	// published snapshot reaches an index at or past first.
	slab := make([]value.Value, 0, len(fresh)*len(ts.meta.Schema))
	for i, row := range fresh {
		slab = append(slab, row...)
		fresh[i] = slab[len(slab)-len(row) : len(slab) : len(slab)]
	}
	for k := range ts.rowIdx {
		run := make(rowRun, len(fresh))
		for i := range run {
			run[i] = rowEntry{ts.coords[(first+i)*d+k], first + i}
		}
		sortRun(run)
		ts.rowIdx[k] = ts.rowIdx[k].push(run)
	}
	return len(fresh)
}

// insertEntry adds a coverage box, compacting as it goes. Caller holds the
// write lock and passes an owned (cloned) box.
func (ts *tableStore) insertEntry(b region.Box, at time.Time, rows int64) (dropped bool, absorbed, merged int) {
	if b.D() != len(ts.dims) {
		// Mismatched dimensionality: store un-indexed, skip compaction.
		id := len(ts.entries)
		ts.entries = append(ts.entries, entry{box: b, at: at, rows: rows})
		ts.alive++
		ts.misc = append(ts.misc, id)
		return false, 0, 0
	}
	// Drop-new: if a stored box at least as fresh already contains the new
	// box, the new entry adds no coverage and no freshness.
	for _, id := range ts.candidates(b) {
		e := &ts.entries[id]
		if !e.dead && !e.at.Before(at) && e.box.Contains(b) {
			return true, 0, 0
		}
	}
	// Absorb: stored boxes contained in the new box and no fresher than it
	// are now redundant.
	for _, id := range ts.candidates(b) {
		e := &ts.entries[id]
		if !e.dead && !at.Before(e.at) && b.Contains(e.box) {
			ts.tombstone(id)
			absorbed++
		}
	}
	cur := ts.addEntry(b, at, rows)
	// Merge cascade: fuse with axis-adjacent boxes (equal on all dimensions
	// but one, touching on that one) until no neighbour fits. The merged
	// entry keeps the older timestamp — freshness is only ever understated.
	for {
		e := ts.entries[cur]
		found := -1
		var mergedBox region.Box
		for _, id := range ts.candidates(expand(e.box)) {
			o := &ts.entries[id]
			if id == cur || o.dead {
				continue
			}
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
		cur = ts.addEntry(mergedBox, mergedAt, e.rows+o.rows)
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

// addEntry appends a live entry and indexes it. Caller holds the write lock.
func (ts *tableStore) addEntry(b region.Box, at time.Time, rows int64) int {
	id := len(ts.entries)
	ts.entries = append(ts.entries, entry{box: b, at: at, rows: rows})
	ts.alive++
	for d := range ts.dims {
		di := &ts.dims[d]
		di.byLo = insertSorted(di.byLo, id, func(o int) int64 { return ts.entries[o].box.Dims[d].Lo })
		if w := b.Dims[d].Width(); w > di.maxWidth {
			di.maxWidth = w
		}
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

// insertSorted inserts id into ids keeping them ordered by (key, id).
func insertSorted(ids []int, id int, key func(int) int64) []int {
	k := key(id)
	pos := sort.Search(len(ids), func(i int) bool {
		ki := key(ids[i])
		return ki > k || (ki == k && ids[i] > id)
	})
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = id
	return ids
}

func (ts *tableStore) tombstone(id int) {
	if !ts.entries[id].dead {
		ts.entries[id].dead = true
		ts.alive--
		ts.dead++
		for i, bid := range ts.big {
			if bid == id {
				ts.big = append(ts.big[:i], ts.big[i+1:]...)
				break
			}
		}
	}
}

// maybeRebuild compacts the entry slice and rebuilds the edge indexes once
// tombstones dominate. Reports whether a rebuild happened.
func (ts *tableStore) maybeRebuild() bool {
	if ts.dead < rebuildMinDead || ts.dead*rebuildDeadFraction <= len(ts.entries) {
		return false
	}
	live := make([]entry, 0, ts.alive)
	for _, e := range ts.entries {
		if !e.dead {
			live = append(live, e)
		}
	}
	ts.entries = live
	ts.dead = 0
	ts.alive = len(live)
	for d := range ts.dims {
		ts.dims[d] = dimIdx{}
	}
	ts.misc = nil
	ts.big = nil
	for id := range ts.entries {
		e := &ts.entries[id]
		if e.box.D() != len(ts.dims) {
			ts.misc = append(ts.misc, id)
			continue
		}
		for d := range ts.dims {
			di := &ts.dims[d]
			di.byLo = insertSorted(di.byLo, id, func(o int) int64 { return ts.entries[o].box.Dims[d].Lo })
			if w := e.box.Dims[d].Width(); w > di.maxWidth {
				di.maxWidth = w
			}
		}
	}
	// Recompute the big-box list over the survivors.
	type bv struct {
		id  int
		vol float64
	}
	var bigs []bv
	for id := range ts.entries {
		if ts.entries[id].box.D() == len(ts.dims) {
			bigs = append(bigs, bv{id, ts.entries[id].box.Volume()})
		}
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

// candidates returns live-or-dead entry ids whose box could overlap q, by
// walking the cheapest (dimension, edge) segment of the per-dimension
// indexes. Callers must still check dead flags and true overlap. The
// returned ids never include misc (dimension-mismatched) entries.
func (ts *tableStore) candidates(q region.Box) []int {
	d := len(ts.dims)
	if q.D() != d || d == 0 {
		// No usable index: every indexed entry is a candidate.
		out := make([]int, 0, len(ts.entries))
		for id := range ts.entries {
			if ts.entries[id].box.D() == d {
				out = append(out, id)
			}
		}
		return out
	}
	// On each axis an overlapping box must have Lo < q.Hi and Lo > q.Lo -
	// maxWidth (else even the widest stored box would end at or before
	// q.Lo). That is a contiguous byLo segment; pick the smallest one.
	bestLen := -1
	var bestSeg []int
	for k := 0; k < d; k++ {
		di := &ts.dims[k]
		qd := q.Dims[k]
		start := 0
		if loMin := qd.Lo - di.maxWidth; loMin <= qd.Lo { // no underflow
			start = sort.Search(len(di.byLo), func(i int) bool {
				return ts.entries[di.byLo[i]].box.Dims[k].Lo > loMin
			})
		}
		end := sort.Search(len(di.byLo), func(i int) bool {
			return ts.entries[di.byLo[i]].box.Dims[k].Lo >= qd.Hi
		})
		if end < start {
			end = start
		}
		if n := end - start; bestLen < 0 || n < bestLen {
			bestLen, bestSeg = n, di.byLo[start:end]
		}
	}
	out := make([]int, 0, bestLen)
	for _, id := range bestSeg {
		if boxesOverlap(ts.entries[id].box, q) {
			out = append(out, id)
		}
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
	var st LookupStats
	ts := s.table(table)
	var out []region.Box
	if ts != nil {
		st.Entries = ts.alive
		// Big-box fast path first: a handful of containment checks against
		// the largest stored regions.
		for _, id := range ts.big {
			e := &ts.entries[id]
			if e.dead || (!since.IsZero() && e.at.Before(since)) {
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
				if e.dead || (!since.IsZero() && e.at.Before(since)) {
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
				// Misc entries bypass the index; mismatched dimensionality
				// is ignored by subtraction but kept for faithfulness.
				for _, id := range ts.misc {
					e := &ts.entries[id]
					if e.dead || (!since.IsZero() && e.at.Before(since)) {
						continue
					}
					if e.box.Overlaps(q) {
						out = append(out, e.box.Clone())
					}
				}
				st.Candidates = len(out)
			}
		}
		st.Pruned = st.Entries - st.Candidates
		if st.Pruned < 0 {
			st.Pruned = 0
		}
	}
	st.Micros = time.Since(start).Microseconds()
	if m := s.metrics; m != nil {
		m.ObserveStoreLookup(st.Micros, st.Pruned, st.FastPath)
	}
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
	var out []region.Box
	for _, e := range ts.entries {
		if e.dead {
			continue
		}
		if !since.IsZero() && e.at.Before(since) {
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

// Epoch returns the table's coverage epoch: the number of Records applied
// to it over the store's lifetime (including WAL replay). It only ever
// increases; a cached plan skeleton compiled at epoch e is stale once the
// table's epoch differs. Unknown tables are at epoch 0.
func (s *Store) Epoch(table string) uint64 {
	ts := s.table(table)
	if ts == nil {
		return 0
	}
	return ts.epoch
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

// rowCoords maps each row onto its queryable-space coordinates, one after
// the other in a single array: len(meta.QueryableAttrs()) per row.
func rowCoords(meta *catalog.Table, rows []value.Row) ([]int64, error) {
	qidx := meta.QueryableIdx()
	qa := meta.QueryableAttrs()
	coords := make([]int64, 0, len(rows)*len(qa))
	for _, row := range rows {
		for i, a := range qa {
			c, err := a.Coord(row[qidx[i]])
			if err != nil {
				return nil, err
			}
			coords = append(coords, c)
		}
	}
	return coords, nil
}

// RowBox maps a row of the table onto its point box in queryable space.
func RowBox(meta *catalog.Table, row value.Row) (region.Box, error) {
	coords, err := rowCoords(meta, []value.Row{row})
	if err != nil {
		return region.Box{}, err
	}
	dims := make([]region.Interval, len(coords))
	for i, c := range coords {
		dims[i] = region.Point(c)
	}
	return region.Box{Dims: dims}, nil
}

// restricted appends to dims the dimensions on which q excludes some stored
// row. A dimension whose interval holds every stored coordinate — the run
// ends give the extremes — needs no per-row test. q must have the table's
// dimensionality.
func (ts *tableStore) restricted(q region.Box, dims []int) []int {
	for k, rd := range ts.rowIdx {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, run := range rd {
			lo, hi = min(lo, run[0].coord), max(hi, run[len(run)-1].coord)
		}
		if lo < q.Dims[k].Lo || hi >= q.Dims[k].Hi {
			dims = append(dims, k)
		}
	}
	return dims
}

// matches reports whether row id's coordinates on dims fall inside q.
func (ts *tableStore) matches(id int, q region.Box, dims []int) bool {
	row := ts.coords[id*len(q.Dims):]
	for _, k := range dims {
		if !q.Dims[k].ContainsCoord(row[k]) {
			return false
		}
	}
	return true
}

// narrowest picks among dims the dimension on which q's coordinate range
// selects the fewest rows and returns it, that count — every row inside q
// is among them — and dims without it: the dimensions its candidates must
// still be tested on. dims must not be empty. It only counts — callers walk
// the chosen dimension's runs again — so a read over many runs allocates
// nothing here.
func (ts *tableStore) narrowest(q region.Box, dims []int) (dim, n int, rest []int) {
	at := 0
	n = -1
	for i, k := range dims {
		c := 0
		for _, run := range ts.rowIdx[k] {
			c += len(run.span(q.Dims[k]))
		}
		if n < 0 || c < n {
			at, n = i, c
		}
	}
	dim = dims[at]
	return dim, n, slices.Delete(dims, at, at+1)
}

// rowsIn returns the rows inside q in insertion order (the order a scan of
// the whole table finds them in) without sorting the table's worth of ids a
// large read used to. A box that restricts no dimension gets the table's own
// row list, uncopied. Otherwise a candidate set of more than 1/64 of the
// table marks its matches in a transient bitset over the table — one bit per
// row, so never more memory than the ids themselves — and reads that back in
// order; a smaller one collects and sorts its few matches, which is cheaper
// than clearing and walking table-sized bits for a handful of rows.
func (ts *tableStore) rowsIn(q region.Box) []value.Row {
	n := len(ts.rows)
	if q.D() != len(ts.rowIdx) || n == 0 {
		return nil // no row has a box of another dimensionality's coordinates
	}
	var buf [8]int
	dims := ts.restricted(q, buf[:0])
	if len(dims) == 0 {
		return ts.rows[:n:n]
	}
	dim, cand, check := ts.narrowest(q, dims)
	var out []value.Row
	if 64*cand > n {
		bits := make([]uint64, (n+63)/64)
		count := 0
		for _, run := range ts.rowIdx[dim] {
			for _, e := range run.span(q.Dims[dim]) {
				if ts.matches(e.id, q, check) {
					bits[e.id/64] |= 1 << (e.id % 64)
					count++
				}
			}
		}
		if count == 0 {
			return nil
		}
		out = make([]value.Row, 0, count)
		for w, word := range bits {
			for ; word != 0; word &= word - 1 {
				out = append(out, ts.rows[w*64+mathbits.TrailingZeros64(word)])
			}
		}
		return out
	}
	ids := make([]int, 0, cand)
	for _, run := range ts.rowIdx[dim] {
		for _, e := range run.span(q.Dims[dim]) {
			if ts.matches(e.id, q, check) {
				ids = append(ids, e.id)
			}
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Ints(ids)
	out = make([]value.Row, len(ids))
	for i, id := range ids {
		out[i] = ts.rows[id]
	}
	return out
}

// RowsIn returns the materialised rows of the table whose queryable
// coordinates fall inside box q, in insertion order. The rows are the
// store's own: callers must not write to them.
func (s *Store) RowsIn(meta *catalog.Table, q region.Box) (storage.Relation, error) {
	out := storage.Relation{Schema: meta.Schema.Clone()}
	if ts := s.table(meta.Name); ts != nil {
		out.Rows = ts.rowsIn(q)
	}
	return out, nil
}

// CountIn returns the number of materialised rows inside box q. When q is
// fully covered by stored boxes this is the exact market-side count.
func (s *Store) CountIn(meta *catalog.Table, q region.Box) (int64, error) {
	ts := s.table(meta.Name)
	if ts == nil {
		return 0, nil
	}
	if q.D() != len(ts.rowIdx) {
		return 0, nil
	}
	var buf [8]int
	dims := ts.restricted(q, buf[:0])
	if len(dims) == 0 {
		return int64(len(ts.rows)), nil
	}
	dim, cand, check := ts.narrowest(q, dims)
	if len(check) == 0 {
		return int64(cand), nil
	}
	var n int64
	for _, run := range ts.rowIdx[dim] {
		for _, e := range run.span(q.Dims[dim]) {
			if ts.matches(e.id, q, check) {
				n++
			}
		}
	}
	return n, nil
}

// StoredRowCount returns the total number of materialised rows for a table.
func (s *Store) StoredRowCount(table string) int {
	ts := s.table(table)
	if ts == nil {
		return 0
	}
	return len(ts.rows)
}
