package semstore

import (
	"math/rand"
	"testing"
	"time"

	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
)

// scatteredGrid records n distinct random points of a span×span grid, in
// random order over calls of four sizes (half, a quarter, an eighth of them,
// then two sixteenths), so the row index ends up as several runs, and returns
// them in insertion order.
func scatteredGrid(t testing.TB, s *Store, n int, span int64) []value.Row {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	meta := gridMeta(span)
	taken := map[[2]int64]bool{}
	var rows []value.Row
	for len(rows) < n {
		p := [2]int64{rng.Int63n(span), rng.Int63n(span)}
		if !taken[p] {
			taken[p] = true
			rows = append(rows, gridRow(p[0], p[1]))
		}
	}
	full := box2(0, span, 0, span)
	from := 0
	for _, to := range []int{n / 2, n * 3 / 4, n * 7 / 8, n * 15 / 16, n} {
		batch := rows[from:to]
		if from > 0 {
			batch = append(batch[:len(batch):len(batch)], rows[0]) // a duplicate: stored once
		}
		if _, err := s.Record(meta, full, batch, time.Unix(1700000000, 0)); err != nil {
			t.Fatal(err)
		}
		from = to
	}
	if runs := len(s.table("Grid").rowIdx[0]); runs < 3 {
		t.Fatalf("the table's index has %d runs; these tests want several", runs)
	}
	return rows
}

// TestRowsInOrderAcrossStrategies reads boxes of every size class out of one
// large table — the whole table and wide stripes (bitset read-back), a
// handful of rows (collected and sorted), nothing, and a box of the wrong
// dimensionality (no usable index: full scan) — plus boxes cut at the
// stored rows' own extremes, where a dimension stops or starts needing a
// per-row test, and requires exactly the rows, in exactly the order, of a
// scan in insertion order.
func TestRowsInOrderAcrossStrategies(t *testing.T) {
	const n, span = 20000, 1000
	s := New(storage.NewDB())
	rows := scatteredGrid(t, s, n, span)
	meta := gridMeta(span)
	if got := s.StoredRowCount("Grid"); got != n {
		t.Fatalf("stored %d rows, want %d", got, n)
	}
	boxes := []region.Box{
		box2(0, span, 0, span),                          // everything
		box2(0, span, 100, 900),                         // most of it; narrowest segment is 80 %
		box2(200, 260, 0, span),                         // a 6 % stripe: above n/64
		box2(0, span, 500, 515),                         // 1.5 %: just under n/64, sorted
		box2(300, 305, 300, 340),                        // a handful
		box2(700, 701, 0, span),                         // one coordinate
		box2(990, 1000, 995, 1000),                      // a corner, possibly empty
		box2(5, 5, 0, span),                             // empty interval
		region.NewBox(region.Interval{Lo: 0, Hi: span}), // one dimension short
	}
	lo, hi := [2]int64{span, span}, [2]int64{-1, -1}
	for _, r := range rows {
		for k := range lo {
			lo[k], hi[k] = min(lo[k], r[k].Int64()), max(hi[k], r[k].Int64())
		}
	}
	boxes = append(boxes,
		box2(-5, span+5, -5, span+5),           // past the domain: restricts nothing
		box2(lo[0], hi[0]+1, lo[1], hi[1]+1),   // the stored extent exactly: restricts nothing
		box2(lo[0], hi[0], lo[1], hi[1]+1),     // drops the largest x only: restricts one
		box2(lo[0], hi[0]+1, lo[1]+1, hi[1]+1), // drops the smallest y only: restricts the other
		box2(lo[0]+1, hi[0], lo[1]+1, hi[1]),   // trims every edge: restricts both
		box2(lo[0], hi[0]+1, 400, 600),         // full on x, a stripe on y
	)
	for _, q := range boxes {
		var want []value.Row
		for _, r := range rows {
			if q.D() == 2 && q.Dims[0].ContainsCoord(r[0].Int64()) && q.Dims[1].ContainsCoord(r[1].Int64()) {
				want = append(want, r)
			}
		}
		got, err := s.RowsIn(meta, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want) {
			t.Fatalf("RowsIn(%v) = %d rows, scan finds %d", q, len(got.Rows), len(want))
		}
		for i := range want {
			if rowKey(got.Rows[i]) != rowKey(want[i]) {
				t.Fatalf("RowsIn(%v): row %d is %v, scan order has %v", q, i, got.Rows[i], want[i])
			}
		}
	}
}

// TestRowsInAllocations is the deterministic guard on the read path: a
// RowsIn allocates its schema, its output and at most one transient index
// (bitset or id list), whatever the size of the read and however many runs
// the row index is in — and a box that restricts no dimension only its
// schema, since it hands out the table's row list itself.
func TestRowsInAllocations(t *testing.T) {
	const n, span = 20000, 1000
	s := New(storage.NewDB())
	scatteredGrid(t, s, n, span)
	meta := gridMeta(span)
	for _, q := range []region.Box{
		box2(0, span, 0, span), box2(200, 260, 0, span), box2(0, span, 500, 515), box2(300, 305, 300, 340),
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := s.RowsIn(meta, q); err != nil {
				t.Fatal(err)
			}
		})
		limit := 4.0
		if q.Equal(box2(0, span, 0, span)) {
			limit = 1
		}
		if allocs > limit {
			t.Errorf("RowsIn(%v): %v allocations, want at most %v", q, allocs, limit)
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
	row := func(x int64, a, b string) value.Row {
		return append(gridRow(x, x), value.NewString(a), value.NewString(b))
	}
	rows := []value.Row{row(1, "a\x1f3b", "c"), row(1, "a", "b\x1f3c")}
	s := New(storage.NewDB())
	res, err := s.Record(meta, box2(0, 10, 0, 10), rows, time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 2 || s.StoredRowCount("Grid") != 2 {
		t.Fatalf("added %d, stored %d: want both rows kept", res.Added, s.StoredRowCount("Grid"))
	}
	got, err := s.RowsIn(meta, box2(1, 2, 1, 2))
	if err != nil || len(got.Rows) != 2 {
		t.Fatalf("RowsIn = %v (%v), want both rows", got.Rows, err)
	}
	// An exact duplicate is still stored once.
	if res, _ := s.Record(meta, box2(0, 10, 0, 10), rows[:1], time.Unix(1700000001, 0)); res.Added != 0 {
		t.Errorf("a repeated row was added again (%d)", res.Added)
	}
}
