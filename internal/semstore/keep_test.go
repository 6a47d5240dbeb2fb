package semstore

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// slabRows returns grid rows from through from+n−1 carved from one slab and
// left uncapped, as a decoder might hand them over: each row's capacity runs
// on into the next row's cells.
func slabRows(from, n int) []value.Row {
	slab := make([]value.Value, 0, 3*n)
	rows := make([]value.Row, n)
	for i := range rows {
		k := int64(from + i)
		slab = append(slab, gridRow(k, k*7%100)...)
		rows[i] = slab[3*i : 3*i+3]
	}
	return rows
}

// TestAllNewBatchKeptAsHandedIn: a batch whose rows are all new is stored
// without copying a cell. Every stored row shares the caller's backing array
// and is capped at its length, so nothing appended to a stored row can reach
// the next one's cells.
func TestAllNewBatchKeptAsHandedIn(t *testing.T) {
	meta := gridMeta(1000)
	s := New(storage.NewDB())
	rows := slabRows(0, 100)
	if res, err := s.Record(meta, meta.FullBox(), rows, time.Unix(1700000000, 0)); err != nil || res.Added != len(rows) {
		t.Fatalf("added %d (%v), want %d", res.Added, err, len(rows))
	}
	stored := s.table("Grid").rows.AppendTo(nil)
	for i, r := range stored {
		if &r[0] != &rows[i][0] {
			t.Fatalf("stored row %d is a copy of the caller's row, not the row itself", i)
		}
		if cap(r) != len(r) {
			t.Fatalf("stored row %d has %d cells in a %d-cell array", i, len(r), cap(r))
		}
	}
	if cap(rows[0]) == len(rows[0]) {
		t.Fatal("Record capped the caller's row headers: the rows slice stays the caller's")
	}
}

// TestBatchWithDuplicatesKeepsNoAlias: a batch holding rows the table already
// stores has its new rows copied, so the store keeps no cell of that batch
// and its discarded duplicates do not pin the batch's backing array.
func TestBatchWithDuplicatesKeepsNoAlias(t *testing.T) {
	meta := gridMeta(1000)
	s := New(storage.NewDB())
	at := time.Unix(1700000000, 0)
	if _, err := s.Record(meta, meta.FullBox(), slabRows(0, 50), at); err != nil {
		t.Fatal(err)
	}
	batch := slabRows(25, 50) // rows 25..49 are stored already
	if res, err := s.Record(meta, meta.FullBox(), batch, at); err != nil || res.Added != 25 {
		t.Fatalf("added %d (%v), want 25", res.Added, err)
	}
	inBatch := map[*value.Value]bool{}
	for _, r := range batch {
		for i := range r[:cap(r)] {
			inBatch[&r[:cap(r)][i]] = true
		}
	}
	stored := s.table("Grid").rows.AppendTo(nil)
	for id, r := range stored {
		for i := range r {
			if inBatch[&r[i]] {
				t.Fatalf("stored row %d aliases the batch that held duplicates", id)
			}
		}
		if cap(r) != len(r) {
			t.Fatalf("stored row %d has %d cells in a %d-cell array", id, len(r), cap(r))
		}
		if want := gridRow(int64(id), int64(id)*7%100); !slices.Equal(r, want) {
			t.Fatalf("stored row %d is %v, want %v", id, r, want)
		}
	}
}

// TestRecordAllNewBatchAllocations: recording a full page of TPC-H Lineitem
// rows (5 000 rows, 7 columns, 6 queryable dimensions) into an empty table
// allocates at most 190 bytes a row, about 122 on linux/amd64. The cells are
// kept, not copied, the row list and each dimension's coordinate column are
// filled chunk by chunk, and the dimensions' runs of int32 ids are built and
// sorted in one pooled buffer.
func TestRecordAllNewBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const n, runs, limit = 5000, 5, 190
	tpch := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	meta, rows := tpch.Lineitem, tpch.LineitemRows[:n]
	at := time.Unix(1700000000, 0)
	var total uint64
	for range runs {
		s := New(storage.NewDB())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Record(meta, meta.FullBox(), rows, at)
		runtime.ReadMemStats(&after)
		if err != nil || res.Added != n {
			t.Fatalf("added %d (%v), want %d", res.Added, err, n)
		}
		total += after.TotalAlloc - before.TotalAlloc
	}
	perRow := total / runs / n
	t.Logf("an all-new %d-row Lineitem Record allocates %d bytes a row", n, perRow)
	if perRow > limit {
		t.Errorf("an all-new %d-row Lineitem Record allocates %d bytes a row; want at most %d", n, perRow, limit)
	}
}

// TestRecordAllocatesWhatItAdds: a Record costs what it adds, not what the
// table already holds. 1 000 Records of 100 new rows each go into one
// three-dimensional table, and what they allocate, counted with the
// collector off (a GC emptying a pool mid-run would move the count), is at
// most 210 bytes per added row, about 191 on linux/amd64: a row header and
// three coordinates in their chunks (48 bytes), the runs of ids the
// logarithmic method merges (each id is copied about log₂ of the batches
// times on each dimension), the dedup table's doublings and each Record's
// copy of the run headers. A row list and columns regrown by append would
// copy every row and coordinate held at each regrowth.
func TestRecordAllocatesWhatItAdds(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const records, batch, limit = 1000, 100, 210
	meta := cubeMeta(1<<20, 64)
	rows := make([]value.Row, records*batch)
	for k := range rows {
		rows[k] = pointRow([]int64{int64(k) * 7919 % (1 << 20), int64(k) * 31 % 1000, int64(k) % 64})
	}
	s := New(storage.NewDB())
	at := time.Unix(1700000000, 0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := range records {
		if res, err := s.Record(meta, meta.FullBox(), rows[r*batch:(r+1)*batch], at); err != nil || res.Added != batch {
			t.Fatalf("record %d: added %d (%v), want %d", r, res.Added, err, batch)
		}
	}
	runtime.ReadMemStats(&after)
	perRow := (after.TotalAlloc - before.TotalAlloc) / uint64(len(rows))
	t.Logf("%d Records of %d rows allocate %d bytes per added row", records, batch, perRow)
	if perRow > limit {
		t.Errorf("%d Records of %d rows allocate %d bytes per added row; want at most %d", records, batch, perRow, limit)
	}
}

// TestRecordCostFlatInEntryCount: a Record costs what it adds, however much
// coverage the table holds. On tiled stores of 1 000 and 10 000 live
// entries (buildTiledStore), 32 more one-tile Records allocate within 2x of
// each other per Record; a Record that copied the table's entries and edge
// indexes would allocate about 10x more at 10 000. Building the 10 000-entry
// store allocates at most 5 % of the 3.75 GB such copies cost. Counted with
// the collector off, so that no pool is emptied mid-run.
func TestRecordCostFlatInEntryCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const more, buildLimit = 32, 3749 << 20 / 20
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perRecord := make(map[int]uint64)
	for _, n := range []int{1000, 10000} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, meta := buildTiledStore(t, n)
		runtime.ReadMemStats(&after)
		built := after.TotalAlloc - before.TotalAlloc
		t.Logf("building %d tiles allocates %.1f MB", n, float64(built)/(1<<20))
		if n == 10000 && built > buildLimit {
			t.Errorf("building %d tiles allocates %d MB, want at most %d MB", n, built>>20, buildLimit>>20)
		}
		side := int64(math.Ceil(math.Sqrt(float64(n))))
		at := time.Unix(1700000000, 0)
		runtime.ReadMemStats(&before)
		for i := range int64(more) { // one row of tiles past the grid's last
			x, y := 4*i, 4*side
			if _, err := s.Record(meta, box2(x, x+2, y, y+2), []value.Row{gridRow(x, y)}, at); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := s.EntryCount("Grid"); got != n+more {
			t.Fatalf("%d entries after %d more tiles on %d, want %d", got, more, n, n+more)
		}
		perRecord[n] = (after.TotalAlloc - before.TotalAlloc) / more
		t.Logf("one more Record on %d entries allocates %d bytes", n, perRecord[n])
	}
	if small, large := perRecord[1000], perRecord[10000]; large >= 2*small {
		t.Errorf("a Record allocates %d bytes on 1 000 entries and %d on 10 000: want less than 2x", small, large)
	}
}
