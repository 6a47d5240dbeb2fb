package semstore

import (
	"fmt"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
)

// buildTiledStore records n disjoint, non-adjacent 2x2 tiles (gaps on both
// axes defeat compaction), each with one materialised row, so live entry
// and row counts stay exactly n — the worst case for a full-scan lookup.
func buildTiledStore(tb testing.TB, n int) (*Store, *catalog.Table) {
	side := 1
	for side*side < n {
		side++
	}
	meta := gridMeta(int64(4*side + 8))
	s := New(storage.NewDB())
	at := time.Unix(1700000000, 0)
	for i := 0; i < n; i++ {
		x := int64(i%side) * 4
		y := int64(i/side) * 4
		b := box2(x, x+2, y, y+2)
		if _, err := s.Record(meta, b, batchOf(meta, []value.Row{gridRow(x, y)}), at); err != nil {
			tb.Fatal(err)
		}
	}
	if got := s.EntryCount("Grid"); got != n {
		tb.Fatalf("tiled store compacted: %d entries, want %d", got, n)
	}
	return s, meta
}

// tileQuery is a small probe box overlapping a handful of tiles near the
// grid's centre.
func tileQuery(n int) region.Box {
	side := 1
	for side*side < n {
		side++
	}
	c := int64(side/2) * 4
	return box2(c, c+6, c, c+6)
}

// naiveRemainder is the pre-index lookup: collect every stored box, then
// subtract — the code path Remainder used before the coverage index.
func naiveRemainder(s *Store, table string, q region.Box) []region.Box {
	return region.Subtract(q, s.Boxes(table, time.Time{}))
}

func BenchmarkSemstoreRemainder(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		s, _ := buildTiledStore(b, n)
		q := tileQuery(n)
		b.Run(fmt.Sprintf("indexed/entries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rem := s.Remainder("Grid", q, time.Time{}); len(rem) == 0 {
					b.Fatal("probe unexpectedly covered")
				}
			}
		})
		b.Run(fmt.Sprintf("naive/entries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rem := naiveRemainder(s, "Grid", q); len(rem) == 0 {
					b.Fatal("probe unexpectedly covered")
				}
			}
		})
	}
}

func BenchmarkSemstoreSelectIn(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		s, meta := buildTiledStore(b, n)
		q := tileQuery(n)
		boxes := []region.Box{q}
		b.Run(fmt.Sprintf("indexed/rows=%d", n), func(b *testing.B) {
			var ids []int32
			cols := make([]storage.Column, len(meta.Schema))
			for i := 0; i < b.N; i++ {
				ids = ids[:0]
				if _, all := s.SelectIn(meta, boxes, &ids, cols); !all && len(ids) == 0 {
					b.Fatal("probe found no rows")
				}
			}
		})
		// The naive path is the pre-index linear scan over every
		// materialised coordinate.
		ts := s.table("Grid")
		b.Run(fmt.Sprintf("naive/rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				count := 0
			scan:
				for id := range ts.n {
					for k, rd := range ts.rowIdx {
						if !q.Dims[k].ContainsCoord(rd.Col.At(id)) {
							continue scan
						}
					}
					count++
				}
				if count == 0 {
					b.Fatal("probe found no rows")
				}
			}
		})
	}
}

// TestIndexedRemainderPrunes is the CI gate on the store-scaling work, in
// the quantity the index exists to shrink: at 10k recorded calls a lookup
// hands subtraction only the handful of boxes near the probe — the naive
// collect-and-subtract baseline examines all 10k — and still computes the
// same remainder. (How much time that buys is measured by
// BenchmarkSemstoreRemainder and the ledger, not asserted here.)
func TestIndexedRemainderPrunes(t *testing.T) {
	const n = 10000
	s, _ := buildTiledStore(t, n)
	q := tileQuery(n)
	boxes, st := s.Coverage("Grid", q, time.Time{})
	if st.Entries != n || st.FastPath {
		t.Fatalf("lookup saw %d entries (fast path %v), want %d and a real remainder", st.Entries, st.FastPath, n)
	}
	// The probe is 6x6 over 2x2 tiles on a pitch of 4: it can touch at most
	// a 2x2 block of them.
	if st.Candidates != len(boxes) || st.Candidates == 0 || st.Candidates > 4 || st.Pruned != n-st.Candidates {
		t.Fatalf("lookup examined %d candidate boxes (pruned %d of %d), want 1..4", st.Candidates, st.Pruned, n)
	}
	if got, want := s.Remainder("Grid", q, time.Time{}), naiveRemainder(s, "Grid", q); !semanticallyEqual(got, want) {
		t.Fatalf("indexed remainder %v, naive %v", got, want)
	}
}

// BenchmarkSemstoreRecord is the write-side guard: one Record of 100 fresh
// rows into a table that already stores 1 k / 10 k / 100 k. A purchase costs
// what it buys, so ns/op and B/op must be flat in the size of the table.
func BenchmarkSemstoreRecord(b *testing.B) {
	const batch, span = 100, 1 << 20
	at := time.Unix(1700000000, 0)
	rowsAt := func(from, n int) []value.Row {
		rows := make([]value.Row, n)
		for i := range rows {
			// Scattered on x, ascending on y: one dimension arrives sorted,
			// the other does not.
			id := int64(from + i)
			rows[i] = gridRow(id*7919%span, id)
		}
		return rows
	}
	for _, stored := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("stored=%d", stored), func(b *testing.B) {
			meta := gridMeta(span)
			full := meta.FullBox()
			s := New(storage.NewDB())
			for from := 0; from < stored; from += batch {
				if _, err := s.Record(meta, full, batchOf(meta, rowsAt(from, batch)), at); err != nil {
					b.Fatal(err)
				}
			}
			batches := make([]value.Batch, b.N)
			for i := range batches {
				batches[i] = batchOf(meta, rowsAt(stored+i*batch, batch))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, rows := range batches {
				if res, err := s.Record(meta, full, rows, at); err != nil || res.Added != batch {
					b.Fatalf("added %d (%v), want %d", res.Added, err, batch)
				}
			}
		})
	}
}
