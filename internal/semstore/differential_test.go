package semstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/chunk"
	"payless/internal/diskfault"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/wal"
)

// rowKey renders a row exactly (kind and quoted payload per value): the
// tests' collision-free stand-in for the string keys the store once used.
func rowKey(r value.Row) string {
	var b strings.Builder
	for _, v := range r {
		fmt.Fprintf(&b, "%d:%q ", v.K, v.String())
	}
	return b.String()
}

// naiveStore replicates the pre-index, pre-compaction semantic store: one
// entry per recorded call forever, remainders via full-scan subtraction,
// rows in a box via a linear coordinate scan. It is the differential oracle's
// ground truth.
type naiveStore struct {
	boxes  []region.Box
	ats    []time.Time
	rows   []value.Row
	coords [][]int64
	seen   map[string]struct{}
}

func newNaiveStore() *naiveStore {
	return &naiveStore{seen: make(map[string]struct{})}
}

func (n *naiveStore) record(meta *catalog.Table, b region.Box, rows []value.Row, at time.Time) error {
	if !b.Empty() {
		n.boxes = append(n.boxes, b.Clone())
		n.ats = append(n.ats, at)
	}
	for _, r := range rows {
		k := rowKey(r)
		if _, dup := n.seen[k]; dup {
			continue
		}
		cs, err := rowCoords(meta, []value.Row{r})
		if err != nil {
			return err
		}
		n.seen[k] = struct{}{}
		n.rows = append(n.rows, r.Clone())
		n.coords = append(n.coords, cs)
	}
	return nil
}

func (n *naiveStore) covered(q region.Box, since time.Time) []region.Box {
	var out []region.Box
	for i, b := range n.boxes {
		if !since.IsZero() && n.ats[i].Before(since) {
			continue
		}
		out = append(out, b)
	}
	return out
}

func (n *naiveStore) remainder(q region.Box, since time.Time) []region.Box {
	rem, _ := region.SubtractBounded(q, n.covered(q, since), 0)
	return rem
}

func (n *naiveStore) rowsIn(q region.Box) []value.Row {
	var out []value.Row
	d := q.D()
scan:
	for i, cs := range n.coords {
		if len(cs) != d {
			continue
		}
		for k := 0; k < d; k++ {
			if !q.Dims[k].ContainsCoord(cs[k]) {
				continue scan
			}
		}
		out = append(out, n.rows[i])
	}
	return out
}

// semanticallyEqual reports that two box sets cover exactly the same region.
func semanticallyEqual(a, b []region.Box) bool {
	for _, x := range a {
		if !region.CoveredBy(x, b) {
			return false
		}
	}
	for _, x := range b {
		if !region.CoveredBy(x, a) {
			return false
		}
	}
	return true
}

// TestDifferentialOracle drives the indexed+compacted store and the naive
// reference through the same randomized workload and asserts they agree on
// Remainder (semantically — decompositions may differ in geometry, never in
// the region they describe), Covered and the exact SelectIn output,
// after every Record. Three schedules: "sparse" records a few rows per call,
// so coverage compaction does the work; "bulk" starts from one whole-table
// Record and follows it with hundreds of calls of 1–100 rows, many of them
// rows the store already holds, so the row index lives in many runs and
// merges them again and again; "bulk3" does the same on a three-dimensional
// table, so reads filter their candidates through two other columns. The
// bulk schedules' reads restrict two (and three) dimensions on both sides of
// rowsIn's bitset cutoff. "chunk" starts from a Record of exactly one full
// chunk of rows, probed as such, and grows past it. Rows and columns are
// chunk lists: the bulk and chunk schedules must record batches that start
// inside a chunk and end in a later one. Each trial's store is durable, and
// at its end a copy loaded from its snapshot and one rebuilt by WAL replay
// must answer like the naive store too.
func TestDifferentialOracle(t *testing.T) {
	for _, sched := range []struct {
		name                    string
		span, maxWidth          int64 // of X and Y
		zSpan                   int64 // of Z; 0: a two-dimensional grid
		trials, records, probes int
		maxRows                 int  // rows per Record: uniform in [0, maxRows)
		wholeTable              int  // rows of the whole-table Record each trial starts with
		minDup                  int  // duplicate rows the bulk schedule must record
		oneChunk                bool // the first Record is exactly chunk.Len distinct rows
	}{
		{name: "sparse", span: 120, maxWidth: 30, trials: 20, records: 60, probes: 8, maxRows: 4},
		{name: "bulk", span: 120, maxWidth: 30, trials: 2, records: 250, probes: 4, maxRows: 101, wholeTable: 4000, minDup: 1000},
		{name: "bulk3", span: 60, maxWidth: 15, zSpan: 4, trials: 2, records: 250, probes: 4, maxRows: 101, wholeTable: 4000, minDup: 1000},
		{name: "chunk", span: 120, maxWidth: 30, trials: 2, records: 60, probes: 8, maxRows: 41, oneChunk: true},
	} {
		t.Run(sched.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			base := time.Unix(1700000000, 0)
			span, maxWidth := sched.span, sched.maxWidth
			boxFrom := func(rng *rand.Rand) region.Box {
				x := rng.Int63n(span)
				y := rng.Int63n(span)
				b := box2(x, x+1+rng.Int63n(maxWidth), y, y+1+rng.Int63n(maxWidth))
				if sched.zSpan > 0 {
					z := rng.Int63n(sched.zSpan)
					b.Dims = append(b.Dims, region.Interval{Lo: z, Hi: z + 1 + rng.Int63n(sched.zSpan-z)})
				}
				return b
			}
			randBox := func() region.Box { return boxFrom(rng) }
			// The recovered stores' probes draw from their own source, so
			// the schedules' draws are those of a memory-only store.
			recoveryRng := rand.New(rand.NewSource(7))
			// rowsInside samples n points of b, repeats allowed.
			rowsInside := func(b region.Box, n int) []value.Row {
				var rows []value.Row
				p := make([]int64, b.D())
				for i := 0; i < n; i++ {
					for k, iv := range b.Dims {
						p[k] = iv.Lo + rng.Int63n(iv.Width())
					}
					rows = append(rows, pointRow(p))
				}
				return rows
			}
			newMeta := func() *catalog.Table {
				if sched.zSpan > 0 {
					return cubeMeta(span+maxWidth+2, sched.zSpan)
				}
				return gridMeta(span + maxWidth + 2)
			}
			sides := readSides{}
			maxRuns, straddles := 0, 0
			for trial := 0; trial < sched.trials; trial++ {
				meta := newMeta()
				lookup := func(name string) (*catalog.Table, bool) { return meta, name == meta.Name }
				fsys := diskfault.New()
				open := func() *Store {
					s := New(storage.NewDB())
					if _, err := s.EnableDurability("/store", DurableOptions{FS: fsys, Policy: wal.SyncOff, Lookup: lookup, CheckpointEvery: -1}); err != nil {
						t.Fatal(err)
					}
					return s
				}
				idx := open()
				ref := newNaiveStore()
				var times []time.Time
				for rec := 0; rec < sched.records; rec++ {
					b := randBox()
					rows := rowsInside(b, rng.Intn(sched.maxRows))
					// Mostly advancing timestamps with occasional out-of-order
					// arrivals, exercising drop-new vs. absorb decisions.
					at := base.Add(time.Duration(rec) * time.Minute)
					if rng.Intn(5) == 0 {
						at = base.Add(time.Duration(rng.Intn(sched.records)) * time.Minute)
					}
					if rec == 0 && sched.wholeTable > 0 {
						b = meta.FullBox()
						whole := box2(0, span+maxWidth, 0, span+maxWidth)
						if sched.zSpan > 0 {
							whole.Dims = append(whole.Dims, region.Interval{Lo: 0, Hi: sched.zSpan})
						}
						rows = rowsInside(whole, sched.wholeTable)
					}
					if rec == 0 && sched.oneChunk {
						b, rows = meta.FullBox(), nil
						for i := range int64(chunk.Len) {
							rows = append(rows, gridRow(i%span, i/span))
						}
					}
					times = append(times, at)
					before := idx.StoredRowCount(meta.Name)
					if _, err := idx.Record(meta, b, batchOf(meta, rows), at); err != nil {
						t.Fatalf("trial %d rec %d: %v", trial, rec, err)
					}
					if after := idx.StoredRowCount(meta.Name); before%chunk.Len != 0 && (after-1)/chunk.Len > before/chunk.Len {
						straddles++
					}
					if rec == 0 && sched.oneChunk && idx.StoredRowCount(meta.Name) != chunk.Len {
						t.Fatalf("trial %d: the first Record stored %d rows, want one chunk's %d", trial, idx.StoredRowCount(meta.Name), chunk.Len)
					}
					if err := ref.record(meta, b, rows, at); err != nil {
						t.Fatalf("trial %d rec %d (naive): %v", trial, rec, err)
					}
					checkRunInvariants(t, idx, meta.Name)
					for _, c := range runCounts(idx, meta.Name) {
						maxRuns = max(maxRuns, c)
					}

					for p := 0; p < sched.probes; p++ {
						q := randBox()
						if p == 0 {
							q = b // always probe the box just recorded
						}
						var since time.Time
						if rng.Intn(3) == 0 && len(times) > 0 {
							since = times[rng.Intn(len(times))]
						}
						gotRem := idx.Remainder(meta.Name, q, since)
						wantRem := ref.remainder(q, since)
						if !semanticallyEqual(gotRem, wantRem) {
							t.Fatalf("trial %d rec %d: Remainder(%v, since=%v) disagrees:\nindexed %v\nnaive   %v",
								trial, rec, q, since, gotRem, wantRem)
						}
						if got, want := idx.Covered(meta.Name, q, since), len(wantRem) == 0; got != want {
							t.Fatalf("trial %d rec %d: Covered(%v, since=%v) = %v, naive %v",
								trial, rec, q, since, got, want)
						}
						sides.note(idx.table(meta.Name), q)
						gotRows := rowsIn(idx, meta, q)
						wantRows := ref.rowsIn(q)
						if len(gotRows) != len(wantRows) {
							t.Fatalf("trial %d rec %d: SelectIn(%v) = %d rows, naive %d",
								trial, rec, q, len(gotRows), len(wantRows))
						}
						for i := range wantRows {
							if rowKey(gotRows[i]) != rowKey(wantRows[i]) {
								t.Fatalf("trial %d rec %d: SelectIn(%v) row %d differs (order must match the naive scan)",
									trial, rec, q, i)
							}
						}
					}
				}
				checkRecovered(t, fmt.Sprintf("trial %d", trial), idx, open, lookup, meta, ref, func() region.Box { return boxFrom(recoveryRng) })
				// The whole point: compaction keeps live entries at or below the
				// naive one-entry-per-call count.
				if idx.EntryCount(meta.Name) > len(ref.boxes) {
					t.Fatalf("trial %d: compacted store has %d entries, naive %d",
						trial, idx.EntryCount(meta.Name), len(ref.boxes))
				}
				if dup := sched.wholeTable + sched.records*sched.maxRows/2 - idx.StoredRowCount(meta.Name); sched.minDup > 0 && dup < sched.minDup {
					t.Fatalf("trial %d: about %d of the recorded rows were duplicates; the schedule wants %d", trial, dup, sched.minDup)
				}
			}
			if (sched.wholeTable > 0 || sched.oneChunk) && straddles == 0 {
				t.Fatal("no Record started inside a chunk and ended in a later one")
			}
			if sched.wholeTable > 0 {
				if maxRuns < 4 {
					t.Fatalf("the row index never had more than %d runs", maxRuns)
				}
				sides.require(t, 2)
				if sched.zSpan > 0 {
					sides.require(t, 3)
				}
			}
		})
	}
}

// checkRecovered closes the durable store idx and requires a copy loaded
// from its snapshot and one rebuilt from its WAL by open to read rows
// exactly like the naive store ref, and to hold as many rows as idx, on
// the full box and on boxes from randBox.
func checkRecovered(t *testing.T, what string, idx *Store, open func() *Store, lookup func(string) (*catalog.Table, bool),
	meta *catalog.Table, ref *naiveStore, randBox func() region.Box) {
	t.Helper()
	var snap bytes.Buffer
	if err := idx.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded := New(storage.NewDB())
	if err := loaded.Load(&snap, lookup); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := open()
	defer replayed.Close()
	for name, s := range map[string]*Store{"loaded": loaded, "replayed": replayed} {
		if got, want := s.StoredRowCount(meta.Name), idx.StoredRowCount(meta.Name); got != want {
			t.Fatalf("%s: %s store holds %d rows, the live one %d", what, name, got, want)
		}
		for p := 0; p < 20; p++ {
			q := meta.FullBox()
			if p > 0 {
				q = randBox()
			}
			got := rowsIn(s, meta, q)
			want := ref.rowsIn(q)
			if len(got) != len(want) {
				t.Fatalf("%s: %s SelectIn(%v) = %d rows, naive %d", what, name, q, len(got), len(want))
			}
			for i := range want {
				if rowKey(got[i]) != rowKey(want[i]) {
					t.Fatalf("%s: %s SelectIn(%v) row %d differs (order must match the naive scan)", what, name, q, i)
				}
			}
		}
	}
}
