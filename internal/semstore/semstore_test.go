package semstore

import (
	"slices"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
)

func pollutionMeta() *catalog.Table {
	return &catalog.Table{
		Dataset: "EHR",
		Name:    "Pollution",
		Schema: value.Schema{
			{Name: "ZipCode", Type: value.String},
			{Name: "Rank", Type: value.Int},
			{Name: "Latitude", Type: value.Float},
		},
		Attrs: []catalog.Attribute{
			{Name: "ZipCode", Type: value.String, Binding: catalog.Free, Class: catalog.CategoricalAttr,
				Domain: []value.Value{value.NewString("A"), value.NewString("B"), value.NewString("C")}},
			{Name: "Rank", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 100},
			{Name: "Latitude", Type: value.Float, Binding: catalog.Output},
		},
	}
}

func row(zip string, rank int64, lat float64) value.Row {
	return value.Row{value.NewString(zip), value.NewInt(rank), value.NewFloat(lat)}
}

func TestRecordAndBoxes(t *testing.T) {
	s := New(storage.NewDB())
	meta := pollutionMeta()
	b1 := region.NewBox(region.Point(0), region.Interval{Lo: 1, Hi: 51})
	now := time.Now()
	if _, err := s.Record(meta, b1, batchOf(meta, []value.Row{row("A", 10, 1), row("A", 20, 2)}), now); err != nil {
		t.Fatal(err)
	}
	if got := s.Boxes("Pollution", time.Time{}); len(got) != 1 || !got[0].Equal(b1) {
		t.Errorf("Boxes: %v", got)
	}
	if s.EntryCount("Pollution") != 1 || s.EntryCount("Ghost") != 0 {
		t.Error("EntryCount")
	}
	if s.StoredRowCount("Pollution") != 2 || s.StoredRowCount("Ghost") != 0 {
		t.Error("StoredRowCount")
	}
	if s.DB() == nil {
		t.Error("DB accessor")
	}
}

func TestRecordDedup(t *testing.T) {
	s := New(storage.NewDB())
	meta := pollutionMeta()
	b := region.NewBox(region.Interval{Lo: 0, Hi: 3}, region.Interval{Lo: 1, Hi: 101})
	rows := []value.Row{row("A", 10, 1), row("B", 20, 2)}
	now := time.Now()
	s.Record(meta, b, batchOf(meta, rows), now)
	rr, err := s.Record(meta, b, batchOf(meta, rows), now.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.StoredRowCount("Pollution"); got != 2 {
		t.Errorf("dedup: %d rows", got)
	}
	// Compaction: the identical re-record absorbs the older entry (the new
	// one is fresher), so live coverage stays a single box.
	if s.EntryCount("Pollution") != 1 {
		t.Errorf("re-recording the same box should compact to one entry, got %d", s.EntryCount("Pollution"))
	}
	if rr.Added != 0 || rr.Absorbed != 1 || rr.Dropped {
		t.Errorf("RecordResult = %+v, want Added=0 Absorbed=1 Dropped=false", rr)
	}
}

// batchOf returns rows as the batch Record takes, in schemaOf's kinds, so
// rows of the wrong kind or width make a batch Record refuses.
func batchOf(meta *catalog.Table, rows []value.Row) value.Batch {
	return value.BatchOf(schemaOf(meta.Schema, rows), rows)
}

// schemaOf returns base fitted to rows: as wide as the first row, each
// column of the kind of its first non-NULL cell, base's where it has none.
func schemaOf(base value.Schema, rows []value.Row) value.Schema {
	schema := base.Clone()
	if len(rows) > 0 {
		schema = slices.Grow(schema, len(rows[0]))[:len(rows[0])]
	}
	for c := range schema {
		for _, row := range rows {
			if row[c].K != value.Null {
				schema[c].Type = row[c].K
				break
			}
		}
	}
	return schema
}

func TestRecordErrors(t *testing.T) {
	s := New(storage.NewDB())
	meta := pollutionMeta()
	empty := region.NewBox(region.Interval{Lo: 5, Hi: 5}, region.Interval{Lo: 1, Hi: 2})
	if _, err := s.Record(meta, empty, batchOf(meta, []value.Row{row("A", 1, 0)}), time.Now()); err == nil {
		t.Error("rows in empty box should error")
	}
	if _, err := s.Record(meta, meta.FullBox(), batchOf(meta, []value.Row{{value.NewInt(1)}}), time.Now()); err == nil {
		t.Error("bad row width should error")
	}
	// An output cell of another kind than its column's: a column holds
	// only what its snapshot encoding can parse back.
	if _, err := s.Record(meta, meta.FullBox(), batchOf(meta, []value.Row{{value.NewString("A"), value.NewInt(1), value.NewInt(2)}}), time.Now()); err == nil {
		t.Error("an Int cell in a Float column should error")
	}
	if s.StoredRowCount(meta.Name) != 0 {
		t.Error("a refused Record stored rows")
	}
}

func TestRemainderAndCovered(t *testing.T) {
	s := New(storage.NewDB())
	meta := pollutionMeta()
	full := meta.FullBox()
	left := region.NewBox(region.Interval{Lo: 0, Hi: 3}, region.Interval{Lo: 1, Hi: 51})
	s.Record(meta, left, batchOf(meta, nil), time.Now())
	rem := s.Remainder("Pollution", full, time.Time{})
	if len(rem) != 1 || !rem[0].Equal(region.NewBox(region.Interval{Lo: 0, Hi: 3}, region.Interval{Lo: 51, Hi: 101})) {
		t.Errorf("Remainder: %v", rem)
	}
	if s.Covered("Pollution", full, time.Time{}) {
		t.Error("full box should not be covered")
	}
	right := region.NewBox(region.Interval{Lo: 0, Hi: 3}, region.Interval{Lo: 51, Hi: 101})
	s.Record(meta, right, batchOf(meta, nil), time.Now())
	if !s.Covered("Pollution", full, time.Time{}) {
		t.Error("full box should now be covered")
	}
	// Unknown table: nothing covered.
	if s.Covered("Ghost", full, time.Time{}) {
		t.Error("unknown table covered")
	}
}

func TestConsistencyWindow(t *testing.T) {
	s := New(storage.NewDB())
	meta := pollutionMeta()
	old := time.Now().Add(-48 * time.Hour)
	recent := time.Now()
	b := meta.FullBox()
	s.Record(meta, b, batchOf(meta, nil), old)
	if !s.Covered("Pollution", b, time.Time{}) {
		t.Error("weak consistency should see the old entry")
	}
	cutoff := time.Now().Add(-time.Hour)
	if s.Covered("Pollution", b, cutoff) {
		t.Error("windowed consistency must ignore stale entries")
	}
	s.Record(meta, b, batchOf(meta, nil), recent)
	if !s.Covered("Pollution", b, cutoff) {
		t.Error("fresh entry should satisfy the window")
	}
}

// rowCoords maps each row onto its queryable-space coordinates, one after
// the other in a single array: meta.NumDims() per row.
func rowCoords(meta *catalog.Table, rows []value.Row) ([]int64, error) {
	cols, err := coordsOf(nil, meta, batchOf(meta, rows))
	if err != nil {
		return nil, err
	}
	var coords []int64
	for r := range rows {
		for _, cs := range cols {
			coords = append(coords, cs[r])
		}
	}
	return coords, nil
}

func TestRowCoords(t *testing.T) {
	meta := pollutionMeta()
	got, err := rowCoords(meta, []value.Row{row("B", 42, 9.5), row("A", 7, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 42, 0, 7}; !slices.Equal(got, want) {
		t.Errorf("rowCoords: %v, want %v", got, want)
	}
	if _, err := rowCoords(meta, []value.Row{row("Z", 42, 9.5)}); err == nil {
		t.Error("out-of-domain row should error")
	}
}

func TestRowsIn(t *testing.T) {
	s := New(storage.NewDB())
	meta := pollutionMeta()
	rows := []value.Row{row("A", 10, 1), row("A", 60, 2), row("B", 10, 3), row("C", 99, 4)}
	s.Record(meta, meta.FullBox(), batchOf(meta, rows), time.Now())

	q := region.NewBox(region.Point(0), region.Interval{Lo: 1, Hi: 51}) // Zip=A, Rank 1..50
	if got := rowsIn(s, meta, q); len(got) != 1 || got[0][1].Int64() != 10 {
		t.Errorf("rows in the box: %v", got)
	}
	// An unknown table selects nothing.
	other := pollutionMeta()
	other.Name = "Other"
	if got := rowsIn(s, other, other.FullBox()); len(got) != 0 {
		t.Errorf("rows of an unknown table: %v", got)
	}
}
