package semstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
)

// RowReference is the rows a store of one table holds, kept as a list of
// rows: Record keeps the first copy it is handed of each row under
// value.ExactKey, and In scans every row's coordinates. It is the reference
// the columnar store's reads are tested against, from outside the package
// too.
type RowReference struct {
	meta *catalog.Table
	rows []value.Row
	seen map[string]bool
}

// NewRowReference returns an empty reference for meta's rows.
func NewRowReference(meta *catalog.Table) *RowReference {
	return &RowReference{meta: meta, seen: map[string]bool{}}
}

// Record adds the rows not held yet, each a copy of its first occurrence.
func (r *RowReference) Record(rows []value.Row) {
	for _, row := range rows {
		if k := rowKey(row); !r.seen[k] {
			r.seen[k] = true
			r.rows = append(r.rows, row.Clone())
		}
	}
}

// Rows returns the rows held, in the order they were first recorded.
func (r *RowReference) Rows() []value.Row { return r.rows }

// In returns the rows whose coordinates lie inside q, in recorded order.
func (r *RowReference) In(q region.Box) []value.Row {
	var out []value.Row
scan:
	for _, row := range r.rows {
		cs, err := rowCoords(r.meta, []value.Row{row})
		if err != nil || len(cs) != q.D() {
			continue
		}
		for k, c := range cs {
			if !q.Dims[k].ContainsCoord(c) {
				continue scan
			}
		}
		out = append(out, row)
	}
	return out
}

// refTable is the coverage index as it was before entries and their index
// were shared between snapshots, kept as the reference for order: entries
// carry their own dead flag, each dimension's ids sit in one slice kept in
// (Lo, id) order by insertion, and every Record works on a deep copy.
type refTable struct {
	entries     []refEntry
	alive, dead int
	dims        []refDim
	big         []int
}

type refEntry struct {
	box  region.Box
	at   time.Time
	dead bool
}

type refDim struct {
	byLo     []int
	maxWidth int64
}

func (t *refTable) clone() *refTable {
	cp := &refTable{entries: slices.Clone(t.entries), alive: t.alive, dead: t.dead,
		dims: make([]refDim, len(t.dims)), big: slices.Clone(t.big)}
	for d, di := range t.dims {
		cp.dims[d] = refDim{slices.Clone(di.byLo), di.maxWidth}
	}
	return cp
}

func (t *refTable) insertEntry(b region.Box, at time.Time) (dropped bool, absorbed, merged int) {
	for _, id := range t.candidates(b) {
		e := &t.entries[id]
		if !e.dead && !e.at.Before(at) && e.box.Contains(b) {
			return true, 0, 0
		}
	}
	for _, id := range t.candidates(b) {
		e := &t.entries[id]
		if !e.dead && !at.Before(e.at) && b.Contains(e.box) {
			t.tombstone(id)
			absorbed++
		}
	}
	cur := t.addEntry(b, at)
	for {
		e := t.entries[cur]
		found := -1
		var mergedBox region.Box
		for _, id := range t.candidates(expand(e.box)) {
			o := &t.entries[id]
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
		mergedAt := e.at
		if o := t.entries[found]; o.at.Before(mergedAt) {
			mergedAt = o.at
		}
		t.tombstone(cur)
		t.tombstone(found)
		cur = t.addEntry(mergedBox, mergedAt)
		merged++
	}
}

func (t *refTable) addEntry(b region.Box, at time.Time) int {
	id := len(t.entries)
	t.entries = append(t.entries, refEntry{box: b, at: at})
	t.alive++
	for d := range t.dims {
		di := &t.dims[d]
		di.byLo = refInsertSorted(di.byLo, id, func(o int) int64 { return t.entries[o].box.Dims[d].Lo })
		di.maxWidth = max(di.maxWidth, b.Dims[d].Width())
	}
	vol := b.Volume()
	pos := len(t.big)
	for i, bid := range t.big {
		if vol > t.entries[bid].box.Volume() {
			pos = i
			break
		}
	}
	if pos < bigBoxLimit {
		t.big = slices.Insert(t.big, pos, id)
		if len(t.big) > bigBoxLimit {
			t.big = t.big[:bigBoxLimit]
		}
	}
	return id
}

func refInsertSorted(ids []int, id int, key func(int) int64) []int {
	k := key(id)
	pos := sort.Search(len(ids), func(i int) bool {
		ki := key(ids[i])
		return ki > k || (ki == k && ids[i] > id)
	})
	return slices.Insert(ids, pos, id)
}

func (t *refTable) tombstone(id int) {
	if t.entries[id].dead {
		return
	}
	t.entries[id].dead = true
	t.alive--
	t.dead++
	if i := slices.Index(t.big, id); i >= 0 {
		t.big = slices.Delete(t.big, i, i+1)
	}
}

func (t *refTable) maybeRebuild() bool {
	if t.dead < rebuildMinDead || t.dead*rebuildDeadFraction <= len(t.entries) {
		return false
	}
	var live []refEntry
	for _, e := range t.entries {
		if !e.dead {
			live = append(live, e)
		}
	}
	t.entries, t.dead, t.alive = live, 0, len(live)
	for d := range t.dims {
		t.dims[d] = refDim{}
	}
	t.big = nil
	for id, e := range t.entries {
		for d := range t.dims {
			di := &t.dims[d]
			di.byLo = refInsertSorted(di.byLo, id, func(o int) int64 { return t.entries[o].box.Dims[d].Lo })
			di.maxWidth = max(di.maxWidth, e.box.Dims[d].Width())
		}
	}
	ids := make([]int, len(t.entries))
	for id := range ids {
		ids[id] = id
	}
	sort.SliceStable(ids, func(i, j int) bool { return t.entries[ids[i]].box.Volume() > t.entries[ids[j]].box.Volume() })
	t.big = ids[:min(len(ids), bigBoxLimit)]
	return true
}

func (t *refTable) candidates(q region.Box) []int {
	bestLen := -1
	var bestSeg []int
	for k := range t.dims {
		di, qd := &t.dims[k], q.Dims[k]
		start := 0
		if loMin := qd.Lo - di.maxWidth; loMin <= qd.Lo {
			start = sort.Search(len(di.byLo), func(i int) bool { return t.entries[di.byLo[i]].box.Dims[k].Lo > loMin })
		}
		end := max(start, sort.Search(len(di.byLo), func(i int) bool { return t.entries[di.byLo[i]].box.Dims[k].Lo >= qd.Hi }))
		if n := end - start; bestLen < 0 || n < bestLen {
			bestLen, bestSeg = n, di.byLo[start:end]
		}
	}
	var out []int
	for _, id := range bestSeg {
		if t.entries[id].box.Overlaps(q) {
			out = append(out, id)
		}
	}
	return out
}

func (t *refTable) coverage(q region.Box, since time.Time) ([]region.Box, LookupStats) {
	st := LookupStats{Entries: t.alive}
	var out []region.Box
	visible := func(e *refEntry) bool { return !e.dead && (since.IsZero() || !e.at.Before(since)) }
	for _, id := range t.big {
		if e := &t.entries[id]; visible(e) && e.box.Contains(q) {
			st.FastPath, st.Candidates, out = true, 1, []region.Box{e.box}
			break
		}
	}
	if !st.FastPath {
		for _, id := range t.candidates(q) {
			e := &t.entries[id]
			if !visible(e) {
				continue
			}
			if e.box.Contains(q) {
				st.FastPath, st.Candidates, out = true, 1, []region.Box{e.box}
				break
			}
			out = append(out, e.box)
		}
		if !st.FastPath {
			st.Candidates = len(out)
		}
	}
	st.Pruned = max(st.Entries-st.Candidates, 0)
	return out, st
}

func (t *refTable) boxes(since time.Time) []region.Box {
	var out []region.Box
	for _, e := range t.entries {
		if !e.dead && (since.IsZero() || !e.at.Before(since)) {
			out = append(out, e.box)
		}
	}
	return out
}

// sameCoverage fails unless ts and ref answer every probe alike: the same
// boxes in the same order with the same statistics, the same live count and
// the same Boxes, at each since.
func sameCoverage(ts *tableStore, ref *refTable, probes []region.Box, sinces []time.Time) error {
	if ts.alive != ref.alive {
		return fmt.Errorf("%d live entries, the reference %d", ts.alive, ref.alive)
	}
	for _, since := range sinces {
		if got, want := ts.boxes(since), ref.boxes(since); !slices.EqualFunc(got, want, region.Box.Equal) {
			return fmt.Errorf("Boxes(%v) = %v, the reference %v", since, got, want)
		}
		for _, q := range probes {
			got, gst := ts.coverage(q, since)
			want, wst := ref.coverage(q, since)
			if !slices.EqualFunc(got, want, region.Box.Equal) || gst != wst {
				return fmt.Errorf("Coverage(%v, %v) = %v %+v, the reference %v %+v", q, since, got, gst, want, wst)
			}
		}
	}
	return nil
}

// TestCoverageOrderMatchesReference runs random Record schedules, which
// drop, absorb, merge in cascades and rebuild, against refTable. After
// every Record the store and the reference report the same compaction and
// answer Coverage with the same boxes in the same order (Subtract and the
// merge cascade depend on it) and the same LookupStats, EntryCount and
// Boxes. Snapshots and reference copies held along the way must still
// agree at the end.
func TestCoverageOrderMatchesReference(t *testing.T) {
	for _, meta := range []*catalog.Table{gridMeta(64), cubeMeta(64, 16)} {
		d := meta.NumDims()
		rng := rand.New(rand.NewSource(int64(50 + d)))
		base := time.Unix(1700000000, 0)
		cells := int64(map[int]int{2: 15, 3: 5}[d])
		randBox := func() region.Box {
			dims := make([]region.Interval, d)
			for k := range dims {
				// Coarse cells make equal and touching edges common: merges.
				lo := 4 * rng.Int63n(cells)
				dims[k] = region.Interval{Lo: lo, Hi: lo + 4*(1+rng.Int63n(3))}
			}
			if rng.Intn(8) == 0 { // a wide box absorbs what it covers
				dims[rng.Intn(d)] = region.Interval{Lo: 0, Hi: 4 * (cells + 3)}
			}
			return region.Box{Dims: dims}
		}
		var probes []region.Box
		for range 12 {
			probes = append(probes, expand(randBox()))
		}
		probes = append(probes, meta.FullBox())
		sinces := []time.Time{{}, base.Add(2 * time.Second), base.Add(4 * time.Second)}
		type held struct {
			ts  *tableStore
			ref *refTable
		}
		var keep []held
		var drops, absorbs, cascades, rebuilds int
		for trial := range 10 {
			s := New(storage.NewDB())
			ref := &refTable{dims: make([]refDim, d)}
			for rec := range 300 {
				b, at := randBox(), base.Add(time.Duration(rng.Intn(6))*time.Second)
				res, err := s.Record(meta, b, batchOf(meta, nil), at)
				if err != nil {
					t.Fatal(err)
				}
				ref = ref.clone()
				dropped, absorbed, merged := ref.insertEntry(b.Clone(), at)
				rebuilds += int(b2u(ref.maybeRebuild()))
				drops += int(b2u(dropped))
				absorbs += int(b2u(absorbed > 0))
				cascades += int(b2u(merged > 1))
				if res.Dropped != dropped || res.Absorbed != absorbed || res.Merged != merged {
					t.Fatalf("%s trial %d record %d: dropped %v absorbed %d merged %d, the reference %v %d %d",
						meta.Name, trial, rec, res.Dropped, res.Absorbed, res.Merged, dropped, absorbed, merged)
				}
				ts := s.table(meta.Name)
				if err := sameCoverage(ts, ref, probes, sinces); err != nil {
					t.Fatalf("%s trial %d record %d: %v", meta.Name, trial, rec, err)
				}
				if rec%37 == 0 {
					keep = append(keep, held{ts, ref})
				}
			}
		}
		t.Logf("%s: %d drops, %d absorbing Records, %d merge cascades, %d rebuilds", meta.Name, drops, absorbs, cascades, rebuilds)
		if min(drops, absorbs, cascades, rebuilds) < 5 {
			t.Fatalf("%s: the schedules test too little", meta.Name)
		}
		for i, h := range keep {
			if err := sameCoverage(h.ts, h.ref, probes, sinces); err != nil {
				t.Fatalf("%s: held snapshot %d: %v", meta.Name, i, err)
			}
		}
	}
}

// TestOldSnapshotsKeepTheirCoverage: published snapshots share the entries
// array, the tombstone bitset and the index runs with the writer, which
// appends entries past their length, tombstones entries they can see
// (absorbing and merging them) and rebuilds. Readers hold snapshots taken
// along the way and read them again while the writer moves on: each keeps
// answering Coverage and Boxes exactly as it did when it was published.
// -race sees any write to a slot a published snapshot can read.
func TestOldSnapshotsKeepTheirCoverage(t *testing.T) {
	const cells = 12
	meta := gridMeta(4 * (cells + 3))
	base := time.Unix(1700000000, 0)
	rng := rand.New(rand.NewSource(51))
	randBox := func(rng *rand.Rand) region.Box {
		x, y := 4*rng.Int63n(cells), 4*rng.Int63n(cells)
		b := box2(x, x+4*(1+rng.Int63n(3)), y, y+4*(1+rng.Int63n(3)))
		if rng.Intn(8) == 0 {
			b.Dims[rng.Intn(2)] = region.Interval{Lo: 0, Hi: 4 * (cells + 3)}
		}
		return b
	}
	var probes []region.Box
	for range 8 {
		probes = append(probes, expand(randBox(rng)))
	}
	since := base.Add(3 * time.Second)
	type answer struct {
		ts    *tableStore
		cov   [][]region.Box
		stats []LookupStats
		boxes []region.Box
	}
	read := func(ts *tableStore) answer {
		a := answer{ts: ts, boxes: ts.boxes(time.Time{})}
		for _, q := range probes {
			for _, at := range []time.Time{{}, since} {
				cov, st := ts.coverage(q, at)
				a.cov, a.stats = append(a.cov, cov), append(a.stats, st)
			}
		}
		return a
	}
	same := func(a, b answer) bool {
		return slices.EqualFunc(a.boxes, b.boxes, region.Box.Equal) && slices.Equal(a.stats, b.stats) &&
			slices.EqualFunc(a.cov, b.cov, func(x, y []region.Box) bool { return slices.EqualFunc(x, y, region.Box.Equal) })
	}

	s := New(storage.NewDB())
	readers := max(2, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []answer
			for {
				select {
				case <-done:
					return
				default:
				}
				if ts := s.table(meta.Name); ts != nil && (len(held) == 0 || held[len(held)-1].ts != ts) {
					held = append(held, read(ts))
					if len(held) > 8 {
						held = held[1:]
					}
				}
				runtime.Gosched() // let the writer tombstone what the held snapshots see
				for i, h := range held {
					if !same(read(h.ts), h) {
						errc <- fmt.Errorf("held snapshot %d of %d changed its answers", i, len(held))
						return
					}
				}
			}
		}()
	}
	compacting, rebuilds := 0, 0
	for rec := range 2000 {
		prev := s.table(meta.Name)
		res, err := s.Record(meta, randBox(rng), batchOf(meta, nil), base.Add(time.Duration(rng.Intn(6))*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		compacting += int(b2u(res.Compacted() > 0))
		if ts := s.table(meta.Name); prev != nil && prev.dead > 0 && ts.dead == 0 && len(ts.entries) < len(prev.entries) {
			rebuilds++
		}
		if rec%50 == 0 {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	t.Logf("%d of 2000 Records tombstoned published entries, %d rebuilt", compacting, rebuilds)
	if compacting < 100 || rebuilds < 3 {
		t.Fatalf("%d Records tombstoned published entries and %d rebuilt: the schedule tests too little", compacting, rebuilds)
	}
}
