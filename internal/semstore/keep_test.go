package semstore

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/chunk"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// gridBatch returns grid rows from through from+n−1 as one batch.
func gridBatch(meta *catalog.Table, from, n int) value.Batch {
	rows := make([]value.Row, n)
	for i := range rows {
		k := int64(from + i)
		rows[i] = gridRow(k, k*7%100)
	}
	return batchOf(meta, rows)
}

// scribble sets every cell of the batch's vectors, past each vector's
// length too, to junk: −1 numbers, an empty string and every row NULL.
func scribble(batch value.Batch) {
	for _, v := range batch.Cols {
		for i := range v.Ints[:cap(v.Ints)] {
			v.Ints[:cap(v.Ints)][i] = -1
		}
		for i := range v.Floats[:cap(v.Floats)] {
			v.Floats[:cap(v.Floats)][i] = -1
		}
		for i := range v.Strs[:cap(v.Strs)] {
			v.Strs[:cap(v.Strs)][i] = value.NewString("")
		}
		for i := range v.Nulls[:cap(v.Nulls)] {
			v.Nulls[:cap(v.Nulls)][i] = 0xff
		}
	}
}

// checkStoredGrid fails unless the Grid table holds exactly rows 0..n−1,
// each rebuilt from the columns as gridRow made it.
func checkStoredGrid(t *testing.T, s *Store, n int) {
	t.Helper()
	stored := s.table("Grid").storedRows()
	if len(stored) != n {
		t.Fatalf("the store holds %d rows, want %d", len(stored), n)
	}
	for id, r := range stored {
		if want := gridRow(int64(id), int64(id)*7%100); !slices.Equal(r, want) {
			t.Fatalf("stored row %d is %v, want %v", id, r, want)
		}
	}
}

// TestAllNewBatchKeptAsHandedIn: a batch whose rows are all new is stored
// with every cell as handed in, copied into the table's columns. Scribbling
// over the batch's vectors after Record leaves every stored row as it was
// recorded.
func TestAllNewBatchKeptAsHandedIn(t *testing.T) {
	meta := gridMeta(1000)
	s := New(storage.NewDB())
	batch := gridBatch(meta, 0, 100)
	if res, err := s.Record(meta, meta.FullBox(), batch, time.Unix(1700000000, 0)); err != nil || res.Added != batch.N {
		t.Fatalf("added %d (%v), want %d", res.Added, err, batch.N)
	}
	scribble(batch)
	checkStoredGrid(t, s, 100)
}

// TestBatchWithDuplicatesKeepsNoAlias: a batch holding rows the table already
// stores has its new rows copied, so the store keeps no cell of either batch.
// Scribbling over both batches' vectors after Record leaves every stored row
// as it was recorded.
func TestBatchWithDuplicatesKeepsNoAlias(t *testing.T) {
	meta := gridMeta(1000)
	s := New(storage.NewDB())
	at := time.Unix(1700000000, 0)
	// A chunk's worth of rows each, the second half of the first in both:
	// each batch's new rows start a chunk of the table's columns.
	batches := []value.Batch{gridBatch(meta, 0, chunk.Len), gridBatch(meta, chunk.Len/2, chunk.Len)}
	for i, batch := range batches {
		want := chunk.Len - chunk.Len/2*i
		if res, err := s.Record(meta, meta.FullBox(), batch, at); err != nil || res.Added != want {
			t.Fatalf("batch %d: added %d (%v), want %d", i, res.Added, err, want)
		}
	}
	for _, batch := range batches {
		scribble(batch)
	}
	checkStoredGrid(t, s, chunk.Len*3/2)
}

// TestRecordAllNewBatchAllocations: recording a full page of TPC-H Lineitem
// rows (5 000 rows, 7 columns, 6 queryable dimensions), handed over as the
// column batch the wire decodes, into an empty table allocates at most 150
// bytes a row, about 113 on linux/amd64. The batch is built before the
// count, so it counts the store's own work: the six Int columns are their
// own coordinates and are copied into the coordinate columns a chunk at a
// time, the output column is filled chunk by chunk, the dimensions' runs of
// int32 ids are built and sorted in one pooled buffer and the dedup table is
// sized once; with no duplicate, no list of the new rows is made.
func TestRecordAllNewBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const n, runs, limit = 5000, 5, 150
	tpch := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	meta, rows := tpch.Lineitem, tpch.LineitemRows[:n]
	batch := value.BatchOf(meta.Schema, rows)
	at := time.Unix(1700000000, 0)
	var total uint64
	for range runs {
		s := New(storage.NewDB())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Record(meta, meta.FullBox(), batch, at)
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

// TestWireToStoreAllocations gates a purchased page's whole trip into the
// store: a full page of TPC-H Lineitem rows (5 000 rows, 7 columns), decoded
// from its wire body and then recorded into an empty table, allocates at
// most 190 bytes a row, about 172 on linux/amd64: the decoded batch's 56
// (8 a cell) and what TestRecordAllNewBatchAllocations counts. Decoding
// into rows, a 16-byte Value a cell and a 24-byte header a row, and
// recording those took 252.
func TestWireToStoreAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const n, runs, limit = 5000, 5, 190
	tpch := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	meta, rows := tpch.Lineitem, tpch.LineitemRows[:n]
	body := market.AppendResultPage(nil, market.Result{Schema: meta.Schema, Batch: value.BatchOf(meta.Schema, rows), Records: n}, 0, n, 0)
	at := time.Unix(1700000000, 0)
	var total uint64
	for range runs {
		s := New(storage.NewDB())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, _, err := market.DecodeResultPage(body)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := s.Record(meta, meta.FullBox(), res.Batch, at)
		runtime.ReadMemStats(&after)
		if err != nil || rr.Added != n {
			t.Fatalf("added %d (%v), want %d", rr.Added, err, n)
		}
		total += after.TotalAlloc - before.TotalAlloc
	}
	perRow := total / runs / n
	t.Logf("a %d-row Lineitem page decoded and recorded allocates %d bytes a row", n, perRow)
	if perRow > limit {
		t.Errorf("a %d-row Lineitem page decoded and recorded allocates %d bytes a row; want at most %d", n, perRow, limit)
	}
}

// TestRecordAllocatesWhatItAdds: a Record costs what it adds, not what the
// table already holds. 1 000 Records of 100 new rows each go into one
// three-dimensional table, and what they allocate, counted with the
// collector off (a GC emptying a pool mid-run would move the count), is at
// most 210 bytes per added row, about 182 on linux/amd64: three coordinates
// and an output cell in their chunks (40 bytes), the runs of ids the
// logarithmic method merges (each id is copied about log₂ of the batches
// times on each dimension), the dedup table's doublings and each Record's
// copy of the run and column headers. Columns regrown by append would copy
// every cell held at each regrowth.
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
	batches := make([]value.Batch, records)
	for r := range batches {
		batches[r] = value.BatchOf(meta.Schema, rows[r*batch:(r+1)*batch])
	}
	s := New(storage.NewDB())
	at := time.Unix(1700000000, 0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := range records {
		if res, err := s.Record(meta, meta.FullBox(), batches[r], at); err != nil || res.Added != batch {
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
			if _, err := s.Record(meta, box2(x, x+2, y, y+2), batchOf(meta, []value.Row{gridRow(x, y)}), at); err != nil {
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

// TestStoreRetainsBytesPerRow pins what the store keeps of a row: TPC-H
// Lineitem (7 columns, 6 of them queryable) bought whole, page by page, each
// page's rows decoded from its wire body as the connector decodes them and
// dropped once recorded. After a collection the heap holds at most 130
// bytes a stored row more than before, about 113 on linux/amd64: six
// coordinates, six ids in the runs, the output cell and the dedup table's
// slots. A store that kept the decoded rows as well held about 240.
func TestStoreRetainsBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs the heap")
	}
	const limit = 130
	tpch := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	meta, rows := tpch.Lineitem, tpch.LineitemRows
	all := market.Result{Schema: meta.Schema, Batch: value.BatchOf(meta.Schema, rows), Records: len(rows)}
	var pages [][]byte
	for from := 0; from < len(rows); from += market.PageRows {
		pages = append(pages, market.AppendResultPage(nil, all, from, min(from+market.PageRows, len(rows)), 0))
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties the pools the first moved aside
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	s := New(storage.NewDB())
	at := time.Unix(1700000000, 0)
	before := heap()
	for _, page := range pages {
		res, _, err := market.DecodeResultPage(page)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Record(meta, meta.FullBox(), res.Batch, at); err != nil {
			t.Fatal(err)
		}
	}
	perRow := int64(heap()-before) / int64(len(rows))
	runtime.KeepAlive(pages)
	if got := s.StoredRowCount(meta.Name); got != len(rows) {
		t.Fatalf("the store holds %d rows, want %d", got, len(rows))
	}
	t.Logf("the store retains %d bytes a stored Lineitem row", perRow)
	if perRow > limit {
		t.Errorf("the store retains %d bytes a stored Lineitem row; want at most %d", perRow, limit)
	}
}
