package semstore

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"payless/internal/catalog"
	"payless/internal/chunk"
	"payless/internal/diskfault"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
)

// checkRunInvariants asserts the shape of a table's log-structured row
// index: on every dimension a column of one coordinate per stored row, the
// one the row really has, and at most ⌊log₂ n⌋+1 runs, each more than twice
// as long as the next, each sorted by (column value, id), and every stored
// row id in exactly one run.
func checkRunInvariants(t *testing.T, s *Store, table string) {
	t.Helper()
	ts := s.table(table)
	if ts == nil {
		return
	}
	n := ts.rows.Len()
	coords, err := rowCoords(ts.meta, ts.rows.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	for k, rd := range ts.rowIdx {
		col := rd.Col.AppendTo(nil)
		if len(col) != n {
			t.Fatalf("dim %d: %d coordinates for %d rows", k, len(col), n)
		}
		for id, c := range col {
			if want := coords[id*len(ts.rowIdx)+k]; c != want {
				t.Fatalf("dim %d: row %d indexed at %d, is at %d", k, id, c, want)
			}
		}
		if n > 0 && len(rd.Runs) > bits.Len(uint(n)) { // bits.Len(n) == ⌊log₂ n⌋+1
			t.Fatalf("dim %d: %d runs for %d rows, want at most %d", k, len(rd.Runs), n, bits.Len(uint(n)))
		}
		in := make([]int, n)
		for r, run := range rd.Runs {
			if len(run) == 0 {
				t.Fatalf("dim %d run %d is empty", k, r)
			}
			if r > 0 && len(rd.Runs[r-1]) <= 2*len(run) {
				t.Fatalf("dim %d: run %d has %d rows, the one before only %d", k, r, len(run), len(rd.Runs[r-1]))
			}
			for i, id := range run {
				if i > 0 && cmp.Or(cmp.Compare(col[run[i-1]], col[id]), cmp.Compare(run[i-1], id)) >= 0 {
					t.Fatalf("dim %d run %d: out of (column value, id) order at %d", k, r, i)
				}
				in[id]++
			}
		}
		for id, c := range in {
			if c != 1 {
				t.Fatalf("dim %d: row %d is in %d runs", k, id, c)
			}
		}
	}
}

// runCounts returns the number of runs on each dimension.
func runCounts(s *Store, table string) []int {
	ts := s.table(table)
	if ts == nil {
		return nil
	}
	var out []int
	for _, rd := range ts.rowIdx {
		out = append(out, len(rd.Runs))
	}
	return out
}

// TestRunCountInvariant drives batch-size schedules that exercise every
// merge shape — single rows, doubling and halving batches, one huge batch
// among small ones, random sizes — and checks the index after every Record.
func TestRunCountInvariant(t *testing.T) {
	const span = 1 << 16
	meta := gridMeta(span)
	at := time.Unix(1700000000, 0)
	rng := rand.New(rand.NewSource(5))
	schedules := map[string][]int{
		"ones":     make([]int, 300),
		"doubling": {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
		"halving":  {1024, 512, 256, 128, 64, 32, 16, 8, 4, 2, 1, 1},
		"big-amid": {3, 1, 2, 5000, 1, 1, 7, 100, 1, 2500, 1},
	}
	for i := range schedules["ones"] {
		schedules["ones"][i] = 1
	}
	for i := 0; i < 200; i++ {
		schedules["random"] = append(schedules["random"], 1+rng.Intn(100))
	}
	for name, sizes := range schedules {
		s := New(storage.NewDB())
		next, maxRuns := int64(0), 0
		for _, size := range sizes {
			rows := make([]value.Row, size)
			for i := range rows {
				rows[i] = gridRow(rng.Int63n(span), next) // y is unique: every row is new
				next++
			}
			if res, err := s.Record(meta, meta.FullBox(), rows, at); err != nil || res.Added != size {
				t.Fatalf("%s: added %d of %d (%v)", name, res.Added, size, err)
			}
			checkRunInvariants(t, s, "Grid")
			for _, c := range runCounts(s, "Grid") {
				maxRuns = max(maxRuns, c)
			}
		}
		if name != "doubling" && maxRuns < 2 {
			t.Errorf("%s: never more than %d run: the schedule tests nothing", name, maxRuns)
		}
	}
}

// TestRecordWriteAmplification is the deterministic gate on what a Record
// costs as the table grows: 1 000 Records of 100 fresh rows each may allocate
// no more than a fixed multiple of the size of the index they build. Copying
// the index on every Record — what the flat sorted arrays did — needs about
// 500 times its final size; the logarithmic method moves each entry
// ⌊log₂ 1000⌋+1 = 10 times at most, and the rows and the hash index of the
// dedup set are allocated beside it.
func TestRecordWriteAmplification(t *testing.T) {
	const records, batch, span, limit = 1000, 100, 1 << 20, 32
	meta := gridMeta(span)
	at := time.Unix(1700000000, 0)
	batches := make([][]value.Row, records)
	for r := range batches {
		batches[r] = make([]value.Row, batch)
		for i := range batches[r] {
			id := int64(r*batch + i)
			batches[r][i] = gridRow(id*7919%span, id)
		}
	}
	s := New(storage.NewDB())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rows := range batches {
		// One box throughout: coverage compacts to a single entry, so what is
		// measured is the row path.
		if _, err := s.Record(meta, meta.FullBox(), rows, at); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	ts := s.table("Grid")
	indexBytes := uint64(ts.rows.Len() * len(ts.rowIdx) * 12) // an int64 coordinate and an int32 id per row and dimension
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %.1f MB for a %.1f MB index: %.1fx", float64(allocated)/1e6, float64(indexBytes)/1e6, float64(allocated)/float64(indexBytes))
	if allocated > limit*indexBytes {
		t.Errorf("1000 Records allocated %d bytes, %.0fx the final index (%d bytes); want at most %dx",
			allocated, float64(allocated)/float64(indexBytes), indexBytes, limit)
	}
}

// TestIndexFootprint: the row index costs 12 bytes per stored (row,
// dimension) — one int64 in the dimension's column and one int32 id in one
// of its runs — however the rows arrived: one big batch, many small ones
// merged again and again, batches with duplicates. Counted from the lengths
// of the columns and runs, so the figure does not depend on the allocator.
func TestIndexFootprint(t *testing.T) {
	const span = 1 << 12
	meta := gridMeta(span)
	at := time.Unix(1700000000, 0)
	rng := rand.New(rand.NewSource(17))
	s := New(storage.NewDB())
	for _, size := range []int{5000, 1, 3, 70, 2, 900, 1, 1, 40, 300} {
		rows := make([]value.Row, size)
		for i := range rows {
			rows[i] = gridRow(rng.Int63n(span), rng.Int63n(span))
		}
		if _, err := s.Record(meta, meta.FullBox(), rows, at); err != nil {
			t.Fatal(err)
		}
	}
	ts := s.table("Grid")
	entries, bytes := ts.rows.Len()*len(ts.rowIdx), 0
	for _, rd := range ts.rowIdx {
		bytes += rd.Col.Len() * int(unsafe.Sizeof(rd.Col.At(0)))
		for _, run := range rd.Runs {
			bytes += len(run) * int(unsafe.Sizeof(run[0]))
		}
	}
	if entries == 0 || bytes != 12*entries {
		t.Fatalf("the row index holds %d bytes for %d (row, dimension) pairs, want 12 each", bytes, entries)
	}
}

// TestSnapshotReadersSeeConsistentStateAcrossMerges holds published snapshots while later Records
// merge their runs away. Runs are shared between snapshots, so the writer must
// never touch a published one: every held snapshot keeps answering exactly as
// it did when it was taken (and -race sees any write to its arrays).
func TestSnapshotReadersSeeConsistentStateAcrossMerges(t *testing.T) {
	const span = 1 << 12
	meta := gridMeta(span)
	at := time.Unix(1700000000, 0)
	s := New(storage.NewDB())
	full := meta.FullBox()
	probe := box2(0, span/2, 0, span)

	readers := max(2, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ts := s.table("Grid")
				if ts == nil {
					runtime.Gosched()
					continue
				}
				all, half := len(ts.rowsIn(full)), len(ts.rowsIn(probe))
				if all != ts.rows.Len() {
					errc <- fmt.Errorf("snapshot of %d rows reads %d through its index", ts.rows.Len(), all)
					return
				}
				runtime.Gosched() // let the writer merge this snapshot's runs away
				if again := len(ts.rowsIn(probe)); again != half {
					errc <- fmt.Errorf("held snapshot answered %d rows, then %d", half, again)
					return
				}
			}
		}()
	}
	// Batch sizes chosen so that most Records merge: runs of 1, 2, 4 … build
	// up and a larger batch then fuses the whole tail.
	sizes := []int{1, 1, 2, 1, 3, 8, 1, 1, 40, 2, 1, 150, 1, 5, 1, 1}
	rng := rand.New(rand.NewSource(8))
	next, merges := int64(0), 0
	for rec := 0; rec < 400; rec++ {
		rows := make([]value.Row, sizes[rec%len(sizes)])
		for i := range rows {
			rows[i] = gridRow(rng.Int63n(span), next%span)
			next++
		}
		before := runCounts(s, "Grid")
		if _, err := s.Record(meta, full, rows, at); err != nil {
			t.Fatal(err)
		}
		if after := runCounts(s, "Grid"); len(before) > 0 && after[0] <= before[0] {
			merges++
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if merges < 100 {
		t.Fatalf("only %d of 400 Records merged runs", merges)
	}
	checkRunInvariants(t, s, "Grid")
}

// TestTailChunkSharedWithOldSnapshots: a published snapshot shares its tail
// chunk with the writer, which appends the next Records' rows and
// coordinates into that chunk's free slots and then into new chunks.
// Readers hold a snapshot taken with its tail chunk part filled and read it
// while the writer fills the chunk: every read returns exactly the rows it
// returned when the snapshot was taken. Readers of the live store see whole
// Records only: a row count on a batch boundary, each row the one the
// writer recorded at its id. Each later batch repeats a stored row, so its
// new rows are rewritten into a slab in place. -race sees any write to a
// slot a published snapshot can read.
func TestTailChunkSharedWithOldSnapshots(t *testing.T) {
	const batch = 37 // batches start and end inside chunks
	meta := cubeMeta(1<<20, 64)
	full, probe := meta.FullBox(), meta.FullBox()
	probe.Dims[2] = region.Interval{Lo: 0, Hi: 32}
	rows := make([]value.Row, 16*chunk.Len/batch*batch)
	for k := range rows {
		rows[k] = pointRow([]int64{int64(k) * 7919 % (1 << 20), int64(k % 1000), int64(k % 64)})
	}
	at := time.Unix(1700000000, 0)
	s := New(storage.NewDB())
	if _, err := s.Record(meta, full, rows[:batch], at); err != nil {
		t.Fatal(err)
	}
	old := s.table(meta.Name)
	oldAll, oldHalf := old.rowsIn(full), old.rowsIn(probe)
	if len(oldAll) != batch || len(oldHalf) == 0 || len(oldHalf) == batch {
		t.Fatalf("the snapshot reads %d rows, %d of them in the probe", len(oldAll), len(oldHalf))
	}
	same := func(a, b []value.Row) bool { return slices.EqualFunc(a, b, slices.Equal[value.Row]) }

	readers := max(2, runtime.GOMAXPROCS(0))
	var wg, started sync.WaitGroup
	errc := make(chan error, readers)
	done := make(chan struct{})
	// read reads the held snapshot and the live store once.
	read := func() error {
		if !same(old.rowsIn(full), oldAll) || !same(old.rowsIn(probe), oldHalf) {
			return fmt.Errorf("a snapshot of %d rows changed while the writer filled its tail chunk", batch)
		}
		var ids []int32
		live, _ := s.SelectIn(meta, []region.Box{probe}, &ids)
		if live.Len()%batch != 0 {
			return fmt.Errorf("a reader sees %d rows, not a whole number of %d-row Records", live.Len(), batch)
		}
		for id := range live.Len() {
			if !slices.Equal(live.At(id), rows[id]) {
				return fmt.Errorf("row %d reads %v, the writer recorded %v", id, live.At(id), rows[id])
			}
		}
		for _, id := range ids {
			if got := live.At(int(id)); got[2].Int64() >= 32 {
				return fmt.Errorf("row %d (%v) read inside the probe", id, got)
			}
		}
		return nil
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			err := read()
			started.Done()
			for err == nil {
				select {
				case <-done:
					return
				default:
				}
				runtime.Gosched()
				err = read()
			}
			errc <- err
		}()
	}
	started.Wait() // every reader has read once
	for from := batch; from < len(rows); from += batch {
		if _, err := s.Record(meta, full, append(rows[from:from+batch:from+batch], rows[from-1]), at); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := s.table(meta.Name).rows; got.Len() != len(rows) || got.Chunks() < 3 {
		t.Fatalf("the table holds %d rows in %d chunks", got.Len(), got.Chunks())
	}
}

// TestRecoveredIndexAnswersLikeLive: a store rebuilt from a snapshot (one
// batch per table) and one rebuilt by WAL replay (one batch per record, so the
// same runs as the live store) must both answer SelectIn exactly like the live,
// many-run store they came from — same rows, same order.
func TestRecoveredIndexAnswersLikeLive(t *testing.T) {
	const span = 400
	meta := gridMeta(span)
	lookup := func(name string) (*catalog.Table, bool) { return meta, name == meta.Name }
	fsys := diskfault.New()
	open := func() *Store {
		s := New(storage.NewDB())
		if _, err := s.EnableDurability("/store", DurableOptions{FS: fsys, Lookup: lookup, CheckpointEvery: -1}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	live := open()
	rng := rand.New(rand.NewSource(13))
	at := time.Unix(1700000000, 0)
	for rec := 0; rec < 120; rec++ {
		x, y := rng.Int63n(span-40), rng.Int63n(span-40)
		b := box2(x, x+1+rng.Int63n(40), y, y+1+rng.Int63n(40))
		rows := make([]value.Row, 1+rng.Intn(60))
		for i := range rows { // duplicates across records are likely and wanted
			rows[i] = gridRow(b.Dims[0].Lo+rng.Int63n(b.Dims[0].Width()), b.Dims[1].Lo+rng.Int63n(b.Dims[1].Width()))
		}
		if _, err := live.Record(meta, b, rows, at.Add(time.Duration(rec)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if c := runCounts(live, "Grid"); c[0] < 2 {
		t.Fatalf("live store has %v runs: the schedule tests nothing", c)
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
	defer replayed.Close()
	if info := replayed.Recovery(); info.Replayed != 120 {
		t.Fatalf("replayed %d records, want 120", info.Replayed)
	}
	for name, s := range map[string]*Store{"loaded": loaded, "replayed": replayed} {
		checkRunInvariants(t, s, "Grid")
		if s.StoredRowCount("Grid") != live.StoredRowCount("Grid") {
			t.Fatalf("%s store holds %d rows, live %d", name, s.StoredRowCount("Grid"), live.StoredRowCount("Grid"))
		}
		for p := 0; p < 200; p++ {
			x, y := rng.Int63n(span), rng.Int63n(span)
			q := box2(x, x+1+rng.Int63n(span/2), y, y+1+rng.Int63n(span/2))
			if p == 0 {
				q = meta.FullBox()
			}
			want, got := rowsIn(live, meta, q), rowsIn(s, meta, q)
			if len(got) != len(want) {
				t.Fatalf("%s: SelectIn(%v) = %d rows, live %d", name, q, len(got), len(want))
			}
			for i := range want {
				if rowKey(got[i]) != rowKey(want[i]) {
					t.Fatalf("%s: SelectIn(%v) row %d is %v, live %v", name, q, i, got[i], want[i])
				}
			}
		}
	}
}
