package semstore

import (
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/obs"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
)

// gridMeta is a two-dimensional numeric table for compaction and scaling
// tests: X and Y are free queryable axes, V is an output column.
func gridMeta(max int64) *catalog.Table {
	return &catalog.Table{
		Dataset: "Synth",
		Name:    "Grid",
		Schema: value.Schema{
			{Name: "X", Type: value.Int},
			{Name: "Y", Type: value.Int},
			{Name: "V", Type: value.Float},
		},
		Attrs: []catalog.Attribute{
			{Name: "X", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 0, Max: max},
			{Name: "Y", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 0, Max: max},
			{Name: "V", Type: value.Float, Binding: catalog.Output},
		},
	}
}

func gridRow(x, y int64) value.Row {
	return value.Row{value.NewInt(x), value.NewInt(y), value.NewFloat(float64(x) + float64(y)/1000)}
}

func box2(x0, x1, y0, y1 int64) region.Box {
	return region.NewBox(region.Interval{Lo: x0, Hi: x1}, region.Interval{Lo: y0, Hi: y1})
}

// TestRecordAtomicOnBadRow is the regression test for the non-atomic Record
// bug: a row whose value falls outside its catalog domain must leave the
// store completely untouched — no coverage entry, no materialised rows — so
// Covered/SelectIn can never claim rows that were not stored.
func TestRecordAtomicOnBadRow(t *testing.T) {
	s := New(storage.NewDB())
	meta := pollutionMeta()
	b := region.NewBox(region.Interval{Lo: 0, Hi: 3}, region.Interval{Lo: 1, Hi: 101})
	rows := []value.Row{
		row("A", 10, 1),
		row("Z", 20, 2), // ZipCode "Z" is outside the catalog domain {A,B,C}
		row("B", 30, 3),
	}
	if _, err := s.Record(meta, b, batchOf(meta, rows), time.Now()); err == nil {
		t.Fatal("expected an error for the out-of-domain row")
	}
	if got := s.EntryCount("Pollution"); got != 0 {
		t.Errorf("EntryCount after failed Record = %d, want 0", got)
	}
	if got := s.Boxes("Pollution", time.Time{}); len(got) != 0 {
		t.Errorf("Boxes after failed Record = %v, want none", got)
	}
	if s.Covered("Pollution", b, time.Time{}) {
		t.Error("failed Record must not claim coverage")
	}
	if got := s.StoredRowCount("Pollution"); got != 0 {
		t.Errorf("StoredRowCount after failed Record = %d, want 0", got)
	}
	if got := rowsIn(s, meta, b); len(got) != 0 {
		t.Errorf("%d rows in the box after failed Record", len(got))
	}
	// The store still works after the failed call.
	if _, err := s.Record(meta, b, batchOf(meta, []value.Row{row("A", 10, 1)}), time.Now()); err != nil {
		t.Fatal(err)
	}
	if s.EntryCount("Pollution") != 1 || s.StoredRowCount("Pollution") != 1 {
		t.Error("store should accept a valid Record after a failed one")
	}
}

// TestBoxesAliasing is the regression test for Boxes returning internal box
// headers: mutating the returned boxes must not corrupt stored coverage.
func TestBoxesAliasing(t *testing.T) {
	s := New(storage.NewDB())
	meta := pollutionMeta()
	b := region.NewBox(region.Interval{Lo: 0, Hi: 2}, region.Interval{Lo: 1, Hi: 51})
	if _, err := s.Record(meta, b, batchOf(meta, nil), time.Now()); err != nil {
		t.Fatal(err)
	}
	got := s.Boxes("Pollution", time.Time{})
	if len(got) != 1 {
		t.Fatalf("Boxes = %v", got)
	}
	got[0].Dims[0] = region.Interval{Lo: -999, Hi: 999}
	got[0].Dims[1] = region.Interval{Lo: -999, Hi: 999}
	again := s.Boxes("Pollution", time.Time{})
	if len(again) != 1 || !again[0].Equal(b) {
		t.Fatalf("stored coverage corrupted through the returned slice: %v", again)
	}
	// Coverage must also hand out clones.
	cov, _ := s.Coverage("Pollution", b, time.Time{})
	if len(cov) != 1 {
		t.Fatalf("Coverage = %v", cov)
	}
	cov[0].Dims[0] = region.Interval{Lo: -1, Hi: 1}
	if final := s.Boxes("Pollution", time.Time{}); !final[0].Equal(b) {
		t.Fatal("stored coverage corrupted through Coverage result")
	}
}

func TestCompactionAbsorbsContainedEntries(t *testing.T) {
	s := New(storage.NewDB())
	meta := gridMeta(1000)
	now := time.Now()
	if _, err := s.Record(meta, box2(10, 20, 10, 20), batchOf(meta, nil), now); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Record(meta, box2(12, 18, 12, 18), batchOf(meta, nil), now); err != nil {
		t.Fatal(err)
	}
	// The second box is contained in equally fresh coverage: dropped.
	if got := s.EntryCount("Grid"); got != 1 {
		t.Errorf("EntryCount after contained record = %d, want 1", got)
	}
	rr, err := s.Record(meta, box2(0, 50, 0, 50), batchOf(meta, nil), now.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !(rr.Absorbed >= 1) || rr.Dropped {
		t.Errorf("RecordResult = %+v, want the wide box to absorb stored coverage", rr)
	}
	if got := s.EntryCount("Grid"); got != 1 {
		t.Errorf("EntryCount after absorbing record = %d, want 1", got)
	}
	boxes := s.Boxes("Grid", time.Time{})
	if len(boxes) != 1 || !boxes[0].Equal(box2(0, 50, 0, 50)) {
		t.Errorf("Boxes = %v, want the absorbing box only", boxes)
	}
}

func TestCompactionDropsRedundantNewEntry(t *testing.T) {
	s := New(storage.NewDB())
	meta := gridMeta(1000)
	now := time.Now()
	if _, err := s.Record(meta, box2(0, 100, 0, 100), batchOf(meta, nil), now); err != nil {
		t.Fatal(err)
	}
	// An older (or equally old) contained box adds neither coverage nor
	// freshness: the entry is dropped, but its rows are still materialised.
	rr, err := s.Record(meta, box2(5, 10, 5, 10), batchOf(meta, []value.Row{gridRow(6, 6)}), now.Add(-time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Dropped || rr.Added != 1 {
		t.Errorf("RecordResult = %+v, want Dropped=true Added=1", rr)
	}
	if got := s.EntryCount("Grid"); got != 1 {
		t.Errorf("EntryCount = %d, want 1", got)
	}
	if s.StoredRowCount("Grid") != 1 {
		t.Error("dropped entry's rows must still be materialised")
	}
	// A *fresher* contained box must NOT be dropped: it refreshes its region.
	rr, err = s.Record(meta, box2(5, 10, 5, 10), batchOf(meta, nil), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Dropped {
		t.Error("a fresher contained box must be kept — dropping it would lose freshness")
	}
	if !s.Covered("Grid", box2(5, 10, 5, 10), now.Add(30*time.Minute)) {
		t.Error("refreshed region should satisfy a newer consistency window")
	}
}

func TestCompactionMergesAdjacentBoxes(t *testing.T) {
	s := New(storage.NewDB())
	meta := gridMeta(1000)
	now := time.Now()
	if _, err := s.Record(meta, box2(0, 10, 0, 10), batchOf(meta, nil), now); err != nil {
		t.Fatal(err)
	}
	rr, err := s.Record(meta, box2(10, 20, 0, 10), batchOf(meta, nil), now)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Merged != 1 {
		t.Errorf("RecordResult = %+v, want Merged=1", rr)
	}
	if got := s.EntryCount("Grid"); got != 1 {
		t.Errorf("EntryCount after adjacent merge = %d, want 1", got)
	}
	boxes := s.Boxes("Grid", time.Time{})
	if len(boxes) != 1 || !boxes[0].Equal(box2(0, 20, 0, 10)) {
		t.Errorf("Boxes = %v, want the merged box [0,20)x[0,10)", boxes)
	}
	// The merge cascades: closing a gap between two merged strips fuses
	// everything that lines up.
	if _, err := s.Record(meta, box2(0, 20, 10, 20), batchOf(meta, nil), now); err != nil {
		t.Fatal(err)
	}
	boxes = s.Boxes("Grid", time.Time{})
	if len(boxes) != 1 || !boxes[0].Equal(box2(0, 20, 0, 20)) {
		t.Errorf("Boxes after cascade = %v, want [0,20)x[0,20)", boxes)
	}
	// Boxes differing on two dimensions must not merge.
	if _, err := s.Record(meta, box2(20, 30, 20, 30), batchOf(meta, nil), now); err != nil {
		t.Fatal(err)
	}
	if got := s.EntryCount("Grid"); got != 2 {
		t.Errorf("EntryCount after diagonal record = %d, want 2 (no merge)", got)
	}
}

// TestMergeKeepsOlderTimestamp pins the freshness invariant: a merged box
// carries the older of the two timestamps, so a consistency window can only
// exclude more coverage than before the merge (over-fetch, never a stale
// answer passed off as fresh).
func TestMergeKeepsOlderTimestamp(t *testing.T) {
	s := New(storage.NewDB())
	meta := gridMeta(1000)
	old := time.Now().Add(-2 * time.Hour)
	recent := time.Now()
	cutoff := time.Now().Add(-time.Hour)
	if _, err := s.Record(meta, box2(0, 10, 0, 10), batchOf(meta, nil), old); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Record(meta, box2(10, 20, 0, 10), batchOf(meta, nil), recent); err != nil {
		t.Fatal(err)
	}
	if got := s.EntryCount("Grid"); got != 1 {
		t.Fatalf("EntryCount = %d, want 1 (merged)", got)
	}
	if !s.Covered("Grid", box2(0, 20, 0, 10), time.Time{}) {
		t.Error("merged coverage must satisfy an unconstrained window")
	}
	// Under the cutoff the merged box counts as old everywhere — even the
	// half that was fetched recently reads as uncovered. That is the
	// documented conservative direction.
	if s.Covered("Grid", box2(10, 20, 0, 10), cutoff) {
		t.Error("merged box must carry the older timestamp")
	}
}

// TestRebuildCompactsTombstones drives enough absorptions to trigger an
// in-memory rebuild and checks the index still answers correctly.
func TestRebuildCompactsTombstones(t *testing.T) {
	s := New(storage.NewDB())
	meta := gridMeta(10000)
	now := time.Now()
	// Each record contains all previous ones (growing nested boxes with a
	// gap from origin so nothing merges), absorbing the prior entry.
	absorbed := 0
	for i := int64(1); i <= 40; i++ {
		res, err := s.Record(meta, box2(1, 1+10*i, 1, 1+10*i), batchOf(meta, nil), now.Add(time.Duration(i)*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		absorbed += res.Absorbed
	}
	if got := s.EntryCount("Grid"); got != 1 {
		t.Errorf("EntryCount = %d, want 1", got)
	}
	if absorbed != 39 {
		t.Errorf("absorbed entries = %d, want 39", absorbed)
	}
	// Without a rebuild all 39 absorbed entries would still be tombstones.
	if dead := s.table("Grid").dead; dead >= 39 {
		t.Errorf("%d tombstones left: expected at least one index rebuild", dead)
	}
	if !s.Covered("Grid", box2(1, 401, 1, 401), time.Time{}) {
		t.Error("final box should be covered after rebuild")
	}
	if s.Covered("Grid", box2(0, 5, 0, 5), time.Time{}) {
		t.Error("origin gap must stay uncovered after rebuild")
	}
}

// TestCoverageFastPath pins the containment fast path and its stats.
func TestCoverageFastPath(t *testing.T) {
	s := New(storage.NewDB())
	m := obs.NewMetrics()
	s.SetMetrics(m)
	meta := gridMeta(10000)
	now := time.Now()
	// Scattered tiles plus one big region.
	for i := int64(0); i < 50; i++ {
		if _, err := s.Record(meta, box2(100+4*i, 102+4*i, 500, 502), batchOf(meta, nil), now); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Record(meta, box2(0, 90, 0, 90), batchOf(meta, nil), now); err != nil {
		t.Fatal(err)
	}
	boxes, st := s.Coverage("Grid", box2(10, 20, 10, 20), time.Time{})
	if !st.FastPath {
		t.Errorf("expected fast path, stats %+v", st)
	}
	if len(boxes) != 1 || !boxes[0].Contains(box2(10, 20, 10, 20)) {
		t.Errorf("fast-path Coverage = %v", boxes)
	}
	if s.Remainder("Grid", box2(10, 20, 10, 20), time.Time{}) != nil {
		t.Error("fast-path region must have an empty remainder")
	}
	// A query overlapping only a few tiles must prune the rest.
	_, st = s.Coverage("Grid", box2(100, 110, 499, 503), time.Time{})
	if st.FastPath {
		t.Error("partial overlap must not fast-path")
	}
	if st.Pruned == 0 || st.Candidates >= st.Entries {
		t.Errorf("expected pruning, stats %+v", st)
	}
	if snap := m.Snapshot(); snap.StoreLookups < 2 || snap.StoreFastPathHits < 1 {
		t.Errorf("lookup metrics: %d lookups, %d fast-path hits", snap.StoreLookups, snap.StoreFastPathHits)
	}
}

// TestCoverageSinceFilter ensures the consistency window applies to both the
// fast path and the indexed path.
func TestCoverageSinceFilter(t *testing.T) {
	s := New(storage.NewDB())
	meta := gridMeta(1000)
	old := time.Now().Add(-2 * time.Hour)
	cutoff := time.Now().Add(-time.Hour)
	if _, err := s.Record(meta, box2(0, 100, 0, 100), batchOf(meta, nil), old); err != nil {
		t.Fatal(err)
	}
	if _, st := s.Coverage("Grid", box2(10, 20, 10, 20), cutoff); st.FastPath || st.Candidates != 0 {
		t.Errorf("stale coverage leaked through the window: %+v", st)
	}
	if s.Covered("Grid", box2(10, 20, 10, 20), cutoff) {
		t.Error("stale coverage must not satisfy the window")
	}
}
