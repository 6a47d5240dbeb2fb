package semstore

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/chunk"
	"payless/internal/diskfault"
	"payless/internal/region"
	"payless/internal/rowidx"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/wal"
)

// cubeMeta is gridMeta with a third free queryable axis, Z in [0, zMax]:
// a table on which a read can restrict three dimensions.
func cubeMeta(max, zMax int64) *catalog.Table {
	m := gridMeta(max)
	m.Name = "Cube"
	m.Schema = value.Schema{m.Schema[0], m.Schema[1], {Name: "Z", Type: value.Int}, m.Schema[2]}
	m.Attrs = []catalog.Attribute{m.Attrs[0], m.Attrs[1],
		{Name: "Z", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 0, Max: zMax}, m.Attrs[2]}
	return m
}

// pointRow is the row of a grid (two coordinates) or cube (three) point.
func pointRow(p []int64) value.Row {
	if len(p) == 2 {
		return gridRow(p[0], p[1])
	}
	return value.Row{value.NewInt(p[0]), value.NewInt(p[1]), value.NewInt(p[2]), value.NewFloat(float64(p[0]) + float64(p[1])/1000)}
}

// boxN is the box of the given [lo, hi) pairs, one per dimension.
func boxN(bounds ...int64) region.Box {
	dims := make([]region.Interval, len(bounds)/2)
	for i := range dims {
		dims[i] = region.Interval{Lo: bounds[2*i], Hi: bounds[2*i+1]}
	}
	return region.Box{Dims: dims}
}

// scattered records n distinct random points of meta's queryable space (the
// grid's or the cube's, each axis short of its Max), in random order over calls of four sizes (half, a
// quarter, an eighth of them, then two sixteenths) with one duplicate each
// after the first, so the row index ends up as several runs, and returns them
// in insertion order.
func scattered(t testing.TB, s *Store, meta *catalog.Table, n int) []value.Row {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	full := meta.FullBox()
	taken := map[[3]int64]bool{}
	var rows []value.Row
	for len(rows) < n {
		var p [3]int64
		for k, iv := range full.Dims {
			p[k] = iv.Lo + rng.Int63n(iv.Width()-1) // below the domain's inclusive Max
		}
		if !taken[p] {
			taken[p] = true
			rows = append(rows, pointRow(p[:full.D()]))
		}
	}
	from := 0
	for _, to := range []int{n / 2, n * 3 / 4, n * 7 / 8, n * 15 / 16, n} {
		batch := rows[from:to]
		if from > 0 {
			batch = append(batch[:len(batch):len(batch)], rows[0]) // a duplicate: stored once
		}
		if _, err := s.Record(meta, full, batchOf(meta, batch), time.Unix(1700000000, 0)); err != nil {
			t.Fatal(err)
		}
		from = to
	}
	if runs := len(s.table(meta.Name).rowIdx[0].Runs); runs < 3 {
		t.Fatalf("the table's index has %d runs; these tests want several", runs)
	}
	return rows
}

// scatteredGrid is scattered over a span×span grid.
func scatteredGrid(t testing.TB, s *Store, n int, span int64) []value.Row {
	return scattered(t, s, gridMeta(span), n)
}

// rowsIn gathers the rows SelectIn selects inside q, in SelectIn's order,
// read through the columns it fills.
func rowsIn(s *Store, meta *catalog.Table, q region.Box) []value.Row {
	var ids []int32
	cols := make([]storage.Column, len(meta.Schema))
	n, all := s.SelectIn(meta, []region.Box{q}, &ids, cols)
	if all {
		for id := range n {
			ids = append(ids, int32(id))
		}
	}
	return gather(cols, ids)
}

// gather reads the rows ids of the columns cols.
func gather(cols []storage.Column, ids []int32) []value.Row {
	out := make([]value.Row, len(ids))
	for i, id := range ids {
		out[i] = make(value.Row, len(cols))
		for c := range cols {
			out[i][c] = cols[c].At(int(id))
		}
	}
	return out
}

// storedRows rebuilds every row of a published table state, in id order.
func (ts *tableStore) storedRows() []value.Row {
	out := make([]value.Row, ts.n)
	for id := range out {
		out[id] = ts.row(make(value.Row, len(ts.cols)), id)
	}
	return out
}

// rowsIn is the package helper's read of one published table state, which
// a test holds while the writer moves on.
func (ts *tableStore) rowsIn(q region.Box) []value.Row {
	var ids []int32
	sel := rowidx.Select(ts.rowIdx, ts.n, q, &ids)
	defer sel.Release()
	if sel.All > 0 {
		return ts.storedRows()
	}
	var out []value.Row
	for _, id := range sel.AppendTo(nil) {
		out = append(out, ts.row(make(value.Row, len(ts.cols)), int(id)))
	}
	return out
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// readSides counts, per number of restricted dimensions, the reads that
// took each side of rowidx.Select's cutoff: [k][0] collected and sorted ids,
// [k][1] marked a bitset.
type readSides map[int]*[2]int

// note classifies the read of q from ts as rowidx.Select will perform it.
func (r readSides) note(ts *tableStore, q region.Box) {
	if q.D() != len(ts.rowIdx) || ts.n == 0 {
		return
	}
	dims := rowidx.Restricted(ts.rowIdx, q, nil)
	if len(dims) == 0 {
		return
	}
	if r[len(dims)] == nil {
		r[len(dims)] = new([2]int)
	}
	if 64*dims[0].N > ts.n {
		r[len(dims)][1]++
	} else {
		r[len(dims)][0]++
	}
}

// require fails unless reads restricting each of ks dimensions took both
// sides of the cutoff.
func (r readSides) require(t *testing.T, ks ...int) {
	t.Helper()
	for _, k := range ks {
		if c := r[k]; c == nil || c[0] == 0 || c[1] == 0 {
			t.Errorf("reads restricting %d dimensions: %v (sorted ids, bitset), want both", k, c)
		}
	}
}

// TestRowsInOrderAcrossStrategies reads boxes of every size class out of
// one large grid and one large cube — the whole table and wide stripes
// (bitset read-back), a handful of rows (collected and sorted), nothing, and
// a box of the wrong dimensionality (no usable index: full scan) — plus
// boxes cut at the stored rows' own extremes, where a dimension stops or
// starts needing a per-row test, and boxes restricting two and three
// dimensions on both sides of the bitset cutoff, and requires exactly the
// rows, in exactly the order, of a scan in insertion order.
func TestRowsInOrderAcrossStrategies(t *testing.T) {
	const n, span = 20000, 1000
	grid, cube := gridMeta(span), cubeMeta(span, 40)
	// Cutoff: a narrowest dimension selecting more than n/64 = 312 rows
	// marks a bitset. A grid stripe one unit wide selects about 20, a cube
	// one about 20, a cube Z slice about 500.
	cases := []struct {
		meta  *catalog.Table
		boxes []region.Box
	}{
		{grid, []region.Box{
			box2(0, span, 0, span),                          // everything
			box2(0, span, 100, 900),                         // most of it; narrowest segment is 80 %
			box2(200, 260, 0, span),                         // a 6 % stripe: above n/64
			box2(0, span, 500, 515),                         // 1.5 %: just under n/64, sorted
			box2(300, 305, 300, 340),                        // a handful
			box2(700, 701, 0, span),                         // one coordinate
			box2(990, 1000, 995, 1000),                      // a corner, possibly empty
			box2(5, 5, 0, span),                             // empty interval
			region.NewBox(region.Interval{Lo: 0, Hi: span}), // one dimension short
			box2(100, 140, 200, 700),                        // two restricted, 4 % narrowest: bitset
			box2(100, 110, 200, 700),                        // two restricted, 1 % narrowest: sorted
		}},
		{cube, []region.Box{
			boxN(0, span, 0, span, 0, 40),        // everything
			boxN(0, span, 0, span, 10, 11),       // one Z slice: 2.5 %, bitset
			boxN(100, 160, 300, 900, 0, 40),      // two restricted: bitset
			boxN(100, 110, 300, 900, 0, 40),      // two restricted: sorted
			boxN(100, 160, 300, 900, 5, 25),      // three restricted: bitset, Z (50 %) filters before Y (60 %)
			boxN(100, 110, 300, 900, 5, 30),      // three restricted: sorted
			boxN(0, 500, 400, 402, 20, 21),       // three restricted, narrowest Y: sorted
			boxN(0, span, 0, span, 5, 5),         // empty interval
			boxN(900, 1000, 0, 100, 39, 40),      // a corner
			box2(0, span, 0, span),               // one dimension short
			boxN(-5, span+5, -5, span+5, -1, 41), // past the domain: restricts nothing
		}},
	}
	sides := readSides{}
	for _, c := range cases {
		s := New(storage.NewDB())
		rows := scattered(t, s, c.meta, n)
		if got := s.StoredRowCount(c.meta.Name); got != n {
			t.Fatalf("%s: stored %d rows, want %d", c.meta.Name, got, n)
		}
		coords, err := rowCoords(c.meta, rows)
		if err != nil {
			t.Fatal(err)
		}
		d := c.meta.NumDims()
		lo, hi := make([]int64, d), make([]int64, d)
		for k := range lo {
			lo[k], hi[k] = span, -1
		}
		for i := range rows {
			for k := range lo {
				lo[k], hi[k] = min(lo[k], coords[i*d+k]), max(hi[k], coords[i*d+k])
			}
		}
		// Boxes at the stored extent, one edge trimmed at a time.
		extent := func(trim ...int64) region.Box {
			b := boxN()
			for k := range lo {
				b.Dims = append(b.Dims, region.Interval{Lo: lo[k] + trim[2*k], Hi: hi[k] + 1 - trim[2*k+1]})
			}
			return b
		}
		zero := make([]int64, 2*d)
		boxes := append(c.boxes, extent(zero...)) // the stored extent exactly: restricts nothing
		for e := range zero {
			trim := slices.Clone(zero)
			trim[e] = 1
			boxes = append(boxes, extent(trim...)) // drops one extreme: restricts one
		}
		all := make([]int64, 2*d)
		for e := range all {
			all[e] = 1
		}
		boxes = append(boxes, extent(all...)) // trims every edge: restricts all
		for _, q := range boxes {
			var want []value.Row
		scan:
			for i, r := range rows {
				if q.D() != d {
					break
				}
				for k := range q.Dims {
					if !q.Dims[k].ContainsCoord(coords[i*d+k]) {
						continue scan
					}
				}
				want = append(want, r)
			}
			sides.note(s.table(c.meta.Name), q)
			got := rowsIn(s, c.meta, q)
			if len(got) != len(want) {
				t.Fatalf("%s: SelectIn(%v) = %d rows, scan finds %d", c.meta.Name, q, len(got), len(want))
			}
			for i := range want {
				if rowKey(got[i]) != rowKey(want[i]) {
					t.Fatalf("%s: SelectIn(%v): row %d is %v, scan order has %v", c.meta.Name, q, i, got[i], want[i])
				}
			}
		}
	}
	sides.require(t, 1, 2, 3)
}

// TestSelectInAllocations is the deterministic guard on the read path: a
// SelectIn into a reused id list allocates nothing, whatever the size of
// the read and however many runs the row index is in: the bitset comes
// from a pool and the ids go into the caller's list, which first grows to
// hold every candidate, so a read whose filters drop candidates filters
// them there in place.
func TestSelectInAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const n, span = 20000, 1000
	s := New(storage.NewDB())
	scatteredGrid(t, s, n, span)
	meta := gridMeta(span)
	for _, c := range []struct {
		q     region.Box
		limit float64
	}{
		{box2(0, span, 0, span), 0},   // restricts nothing: the table's own rows
		{box2(200, 260, 0, span), 0},  // a bitset
		{box2(0, span, 500, 515), 0},  // sorted ids, no filter
		{box2(300, 305, 300, 340), 0}, // sorted ids, filtered
	} {
		var ids []int32
		boxes, cols := []region.Box{c.q}, make([]storage.Column, len(meta.Schema))
		allocs := testing.AllocsPerRun(10, func() {
			ids = ids[:0]
			s.SelectIn(meta, boxes, &ids, cols)
		})
		if allocs > c.limit {
			t.Errorf("SelectIn(%v): %v allocations, want at most %v", c.q, allocs, c.limit)
		}
	}
}

// TestRecordKeepsRowsTheStringKeysMerged is the store's side of the key
// collision: ("a\x1f3b","c") and ("a","b\x1f3c") rendered to one string key,
// so the second row was dropped as a duplicate of the first and its box
// answered from the store without it.
func TestRecordKeepsRowsTheStringKeysMerged(t *testing.T) {
	meta := gridMeta(10)
	meta.Schema = append(meta.Schema.Clone(), value.Column{Name: "A", Type: value.String}, value.Column{Name: "B", Type: value.String})
	meta.Attrs = append(meta.Attrs, catalog.Attribute{Name: "A", Type: value.String, Binding: catalog.Output},
		catalog.Attribute{Name: "B", Type: value.String, Binding: catalog.Output})
	row := func(x int64, a, b string) value.Row {
		return append(gridRow(x, x), value.NewString(a), value.NewString(b))
	}
	rows := []value.Row{row(1, "a\x1f3b", "c"), row(1, "a", "b\x1f3c")}
	s := New(storage.NewDB())
	res, err := s.Record(meta, box2(0, 10, 0, 10), batchOf(meta, rows), time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 2 || s.StoredRowCount("Grid") != 2 {
		t.Fatalf("added %d, stored %d: want both rows kept", res.Added, s.StoredRowCount("Grid"))
	}
	if got := rowsIn(s, meta, box2(1, 2, 1, 2)); len(got) != 2 {
		t.Fatalf("SelectIn read %v, want both rows", got)
	}
	// An exact duplicate is still stored once.
	if res, _ := s.Record(meta, box2(0, 10, 0, 10), batchOf(meta, rows[:1]), time.Unix(1700000001, 0)); res.Added != 0 {
		t.Errorf("a repeated row was added again (%d)", res.Added)
	}
}

// TestSelectInMatchesScan is the differential test of rowidx.Select's two filters
// and their unsigned width test c−lo < hi−lo: SelectIn, gathered and with
// ids appended after others, against a
// per-row scan, on a table whose X axis is all of int64 (Min to MaxInt64−1)
// and holds coordinates at both of its edges, and on boxes whose bounds are
// the int64 edges, the domain edges, stored coordinates and their
// neighbours, so intervals come empty, inverted, one wide, wider than the
// domain and 2^64−1 wide, and filter on both sides of the 64·cand ≤ n cutoff.
//
// The rows and columns are chunk lists, so the same reads also run where
// chunks meet: batches start inside a chunk and end in a later one, reads
// select ids in several chunks, a second table holds exactly one full
// chunk, and each table is read again after a snapshot load (one batch)
// and after WAL replay (the live store's batches).
func TestSelectInMatchesScan(t *testing.T) {
	const n = 3000
	meta := cubeMeta(63, 7)
	meta.Name = "Wide"
	meta.Attrs[0].Min, meta.Attrs[0].Max = math.MinInt64, math.MaxInt64-1
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 2, math.MaxInt64 - 1}
	rng := rand.New(rand.NewSource(45))
	taken := map[[3]int64]bool{}
	var rows []value.Row
	for len(rows) < n {
		p := [3]int64{int64(rng.Uint64() >> 1), rng.Int63n(64), rng.Int63n(8)}
		if rng.Intn(2) == 0 {
			p[0] = -p[0]
		}
		if rng.Intn(3) == 0 {
			p[0] = edges[rng.Intn(len(edges))]
		}
		if p[0] == math.MaxInt64 || taken[p] {
			continue
		}
		taken[p] = true
		rows = append(rows, pointRow(p[:]))
	}
	coords, err := rowCoords(meta, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Four runs; the second batch starts inside a chunk and ends in another.
	ends := []int{1700, 2500, 2850, n}
	if 1700%chunk.Len == 0 || 1700/chunk.Len == 2499/chunk.Len || n < 4*chunk.Len {
		t.Fatalf("with %d-row chunks the batches do not straddle chunk boundaries", chunk.Len)
	}
	var batches [][]value.Row
	from := 0
	for _, to := range ends {
		batches = append(batches, rows[from:to])
		from = to
	}
	stores := recordedAndRecovered(t, meta, batches)
	if ts := stores["live"].table(meta.Name); len(ts.rowIdx[0].Runs) < 3 {
		t.Fatalf("the index has %d runs; the test wants several", len(ts.rowIdx[0].Runs))
	}
	one := recordedAndRecovered(t, meta, [][]value.Row{rows[:100], rows[100:chunk.Len]})
	if got := one["live"].table(meta.Name).vals[3]; got.Len() != chunk.Len || got.Chunks() != 1 {
		t.Fatalf("the one-chunk table holds %d rows in %d chunks", got.Len(), got.Chunks())
	}

	// check runs trials reads of s, which holds rows[:m], against the scan.
	check := func(name string, s *Store, m, trials int) {
		// bound draws an interval end on axis k.
		bound := func(k int) int64 {
			full := meta.FullBox().Dims[k]
			switch rng.Intn(5) {
			case 0:
				return []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
			case 1:
				return []int64{full.Lo, full.Lo + 1, full.Hi - 1, full.Hi}[rng.Intn(4)]
			case 2:
				return edges[rng.Intn(len(edges))]
			default:
				c := coords[rng.Intn(m)*3+k]
				return c + int64(rng.Intn(3)-1) // wraps at the int64 edges, which is another edge
			}
		}
		ts := s.table(meta.Name)
		sides, spanning := readSides{}, 0
		for trial := 0; trial < trials; trial++ {
			q := meta.FullBox()
			for k := range q.Dims {
				if rng.Intn(3) > 0 {
					q.Dims[k] = region.Interval{Lo: bound(k), Hi: bound(k)}
					if rng.Intn(4) > 0 && q.Dims[k].Lo > q.Dims[k].Hi {
						q.Dims[k].Lo, q.Dims[k].Hi = q.Dims[k].Hi, q.Dims[k].Lo
					}
				}
			}
			var want []value.Row
		scan:
			for i, r := range rows[:m] {
				for k := range q.Dims {
					if !q.Dims[k].ContainsCoord(coords[i*3+k]) {
						continue scan
					}
				}
				want = append(want, r)
			}
			sides.note(ts, q)
			got := rowsIn(s, meta, q)
			ids := []int32{7, 7} // the selection goes after them
			cols := make([]storage.Column, len(meta.Schema))
			n, all := s.SelectIn(meta, []region.Box{q}, &ids, cols)
			var selected []value.Row
			if all {
				selected = ts.storedRows()[:n]
			} else {
				selected = gather(cols, ids[2:])
				if len(ids) > 3 && ids[2]/chunk.Len != ids[len(ids)-1]/chunk.Len {
					spanning++
				}
			}
			if len(ids) < 2 || ids[0] != 7 || ids[1] != 7 || len(got) != len(want) || len(selected) != len(want) {
				t.Fatalf("%s: box %v: gathered %d rows, SelectIn %d (after %v), scan %d", name, q, len(got), len(selected), ids[:min(2, len(ids))], len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) || !slices.Equal(selected[i], want[i]) {
					t.Fatalf("%s: box %v: row %d is %v (gathered) and %v (SelectIn), the scan has %v", name, q, i, got[i], selected[i], want[i])
				}
			}
		}
		if m > chunk.Len && spanning < trials/20 {
			t.Errorf("%s: %d of %d reads listed ids in more than one chunk", name, spanning, trials)
		}
		if name == "live" {
			sides.require(t, 2, 3)
		}
	}
	for _, name := range []string{"live", "loaded", "replayed"} {
		trials := 1000
		if name == "live" {
			trials = 3000
		}
		check(name, stores[name], n, trials)
		check(name+" one chunk", one[name], chunk.Len, 300)
	}
}

// recordedAndRecovered records each batch, over the full box, into a
// durable store on an in-memory file system, and returns it as "live" with
// two stores rebuilt from it: "loaded" from its snapshot, one batch per
// table, and "replayed" from its WAL, one batch per Record as live got them.
func recordedAndRecovered(t *testing.T, meta *catalog.Table, batches [][]value.Row) map[string]*Store {
	t.Helper()
	lookup := func(name string) (*catalog.Table, bool) { return meta, name == meta.Name }
	fsys := diskfault.New()
	open := func() *Store {
		s := New(storage.NewDB())
		if _, err := s.EnableDurability("/store", DurableOptions{FS: fsys, Policy: wal.SyncOff, Lookup: lookup, CheckpointEvery: -1}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	live := open()
	for _, b := range batches {
		if _, err := live.Record(meta, meta.FullBox(), batchOf(meta, b), time.Unix(1700000000, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := live.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded := New(storage.NewDB())
	if err := loaded.Load(&snap, lookup); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := open()
	t.Cleanup(func() { replayed.Close() })
	if info := replayed.Recovery(); info.Replayed != len(batches) {
		t.Fatalf("replayed %d records, want %d", info.Replayed, len(batches))
	}
	return map[string]*Store{"live": live, "loaded": loaded, "replayed": replayed}
}
