package semstore

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	meta := pollutionMeta()
	s1 := New(storage.NewDB())
	b1 := region.NewBox(region.Point(0), region.Interval{Lo: 1, Hi: 51})
	b2 := region.NewBox(region.Point(1), region.Interval{Lo: 1, Hi: 101})
	at := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	if _, err := s1.Record(meta, b1, batchOf(meta, []value.Row{row("A", 10, 1.5)}), at); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Record(meta, b2, batchOf(meta, []value.Row{row("B", 99, 2.5)}), at.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s1.Save(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := New(storage.NewDB())
	lookup := func(table string) (*catalog.Table, bool) {
		if table == "Pollution" {
			return meta, true
		}
		return nil, false
	}
	if err := s2.Load(bytes.NewReader(buf.Bytes()), lookup); err != nil {
		t.Fatal(err)
	}
	if s2.EntryCount("Pollution") != 2 {
		t.Errorf("entries after load: %d", s2.EntryCount("Pollution"))
	}
	if s2.StoredRowCount("Pollution") != 2 {
		t.Errorf("rows after load: %d", s2.StoredRowCount("Pollution"))
	}
	// Coverage and timestamps survive: the old entry falls outside a window
	// cut between the two timestamps.
	if !s2.Covered("Pollution", b1, time.Time{}) {
		t.Error("coverage lost in round trip")
	}
	if s2.Covered("Pollution", b1, at.Add(30*time.Minute)) {
		t.Error("entry timestamp lost: windowed coverage should exclude b1")
	}
	if !s2.Covered("Pollution", b2, at.Add(30*time.Minute)) {
		t.Error("fresh entry should satisfy the window after reload")
	}
	// Rows are queryable with correct coordinates.
	if got := rowsIn(s2, meta, b1); len(got) != 1 {
		t.Errorf("rows in the box after load: %d", len(got))
	}
}

func TestLoadErrors(t *testing.T) {
	meta := pollutionMeta()
	s := New(storage.NewDB())
	lookup := func(table string) (*catalog.Table, bool) {
		if table == "Pollution" {
			return meta, true
		}
		return nil, false
	}
	cases := []string{
		"not json",
		`{"version":99}`,
		`{"magic":"payless-semstore","version":99}`,
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Ghost"}]}`,
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Pollution","kinds":["int"]}]}`,
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Pollution","kinds":["int","int","float"]}]}`,
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Pollution","kinds":["string","int","banana"]}]}`,
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Pollution","kinds":["string","int","float"],"rows":[["A"]]}]}`,
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Pollution","kinds":["string","int","float"],"rows":[["A","x","1"]]}]}`,
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Pollution","kinds":["string","int","float"],"rows":[["Z","1","1"]]}]}`,
	}
	for i, c := range cases {
		if err := s.Load(strings.NewReader(c), lookup); err == nil {
			t.Errorf("case %d should fail: %s", i, c)
		}
	}
}

func TestLoadMergesIntoExistingStore(t *testing.T) {
	meta := pollutionMeta()
	s1 := New(storage.NewDB())
	b := region.NewBox(region.Point(0), region.Interval{Lo: 1, Hi: 11})
	s1.Record(meta, b, batchOf(meta, []value.Row{row("A", 5, 0)}), time.Now())
	var buf bytes.Buffer
	if err := s1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Load into a store that already holds a different region.
	s2 := New(storage.NewDB())
	other := region.NewBox(region.Point(2), region.Interval{Lo: 1, Hi: 11})
	s2.Record(meta, other, batchOf(meta, []value.Row{row("C", 7, 0)}), time.Now())
	lookup := func(string) (*catalog.Table, bool) { return meta, true }
	if err := s2.Load(bytes.NewReader(buf.Bytes()), lookup); err != nil {
		t.Fatal(err)
	}
	if s2.EntryCount("Pollution") != 2 || s2.StoredRowCount("Pollution") != 2 {
		t.Errorf("merge: entries=%d rows=%d", s2.EntryCount("Pollution"), s2.StoredRowCount("Pollution"))
	}
}

// TestSaveDeterministic pins the satellite fix for map-ordered Save output:
// a store with several tables must serialise byte-identically every time.
func TestSaveDeterministic(t *testing.T) {
	build := func() *Store {
		s := New(storage.NewDB())
		at := time.Unix(1700000000, 0).UTC()
		metas := []*catalog.Table{gridMeta(1000), pollutionMeta()}
		if _, err := s.Record(metas[0], box2(0, 10, 0, 10), batchOf(metas[0], []value.Row{gridRow(1, 2)}), at); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Record(metas[1], region.NewBox(region.Point(0), region.Interval{Lo: 1, Hi: 51}),
			batchOf(metas[1], []value.Row{row("A", 10, 1.5)}), at); err != nil {
			t.Fatal(err)
		}
		return s
	}
	var first string
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := build().Save(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
			if !strings.Contains(first, `"version":3`) {
				t.Fatalf("Save should emit version 3: %s", first)
			}
			// Tables must appear sorted by name: Grid before Pollution.
			if g, p := strings.Index(first, `"Grid"`), strings.Index(first, `"Pollution"`); g < 0 || p < 0 || g > p {
				t.Fatalf("tables not sorted by name in: %s", first)
			}
			continue
		}
		if got := buf.String(); got != first {
			t.Fatalf("Save output differs across runs:\n%s\nvs\n%s", got, first)
		}
	}
}

// kindsMeta exercises every value kind through persistence: a categorical
// string axis whose members look like numbers and like "null", a numeric
// axis, and float/string/null output columns.
func kindsMeta() *catalog.Table {
	dom := []value.Value{
		value.NewString("12"), value.NewString("null"), value.NewString(""),
		value.NewString("1.5e3"), value.NewString("plain"),
	}
	return &catalog.Table{
		Dataset: "Synth",
		Name:    "Kinds",
		Schema: value.Schema{
			{Name: "Tag", Type: value.String},
			{Name: "N", Type: value.Int},
			{Name: "F", Type: value.Float},
			{Name: "S", Type: value.String},
			{Name: "Z", Type: value.Null},
		},
		Attrs: []catalog.Attribute{
			{Name: "Tag", Type: value.String, Binding: catalog.Free, Class: catalog.CategoricalAttr, Domain: dom},
			{Name: "N", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: -1000, Max: 1000},
			{Name: "F", Type: value.Float, Binding: catalog.Output},
			{Name: "S", Type: value.String, Binding: catalog.Output},
			{Name: "Z", Type: value.Null, Binding: catalog.Output},
		},
	}
}

// TestSaveLoadRoundTripAllKinds round-trips rows across every value kind —
// awkward floats that need full precision, strings that look like numbers
// or like "null", negative ints, empty strings — plus an entry-less empty
// table, and checks the reloaded store answers identically.
func TestSaveLoadRoundTripAllKinds(t *testing.T) {
	meta := kindsMeta()
	s1 := New(storage.NewDB())
	at := time.Unix(1700000000, 0).UTC()
	rows := []value.Row{
		{value.NewString("12"), value.NewInt(-999), value.NewFloat(0.1), value.NewString("null"), value.NewNull()},
		{value.NewString("null"), value.NewInt(0), value.NewFloat(1.0 / 3.0), value.NewString("12"), value.NewNull()},
		{value.NewString(""), value.NewInt(7), value.NewFloat(-2.5e-17), value.NewString(""), value.NewNull()},
		{value.NewString("1.5e3"), value.NewInt(1000), value.NewFloat(12345678.9012345), value.NewString("x\"y,z"), value.NewNull()},
		// NULL in a float and a string column, beside the string "NULL".
		{value.NewString("plain"), value.NewInt(42), value.NewNull(), value.NewNull(), value.NewNull()},
		{value.NewString("plain"), value.NewInt(43), value.NewFloat(2), value.NewString("NULL"), value.NewNull()},
	}
	full := meta.FullBox()
	if _, err := s1.Record(meta, full, batchOf(meta, rows), at); err != nil {
		t.Fatal(err)
	}
	// An empty table (known to the catalog, no entries, no rows) must
	// survive the trip too.
	empty := gridMeta(10)
	if _, err := s1.Record(empty, box2(0, 1, 0, 1), batchOf(empty, nil), at); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	lookup := func(table string) (*catalog.Table, bool) {
		switch table {
		case "Kinds":
			return meta, true
		case "Grid":
			return empty, true
		}
		return nil, false
	}
	s2 := New(storage.NewDB())
	if err := s2.Load(bytes.NewReader(buf.Bytes()), lookup); err != nil {
		t.Fatal(err)
	}
	if !s2.Covered("Kinds", full, time.Time{}) {
		t.Error("coverage lost in round trip")
	}
	got := rowsIn(s2, meta, full)
	if len(got) != len(rows) {
		t.Fatalf("round trip returned %d rows, want %d", len(got), len(rows))
	}
	want := map[string]bool{}
	for _, r := range rows {
		want[rowKey(r)] = true
	}
	for _, r := range got {
		if !want[rowKey(r)] {
			t.Errorf("row %v corrupted in round trip", r)
		}
		// Float cells must survive with full precision.
		if r[2].K != value.Float && !r[2].IsNull() {
			t.Errorf("float column came back as %v", r[2].K)
		}
	}
	// A second save must be byte-identical to the first (deterministic and
	// stable under reload).
	var buf2 bytes.Buffer
	if err := s2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Errorf("save -> load -> save is not a fixed point:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

// TestLoadRejectsPreVersion3Files pins that the snapshot format has one
// version: files from before the magic header (versions 1 and 2) fail with
// ErrBadSnapshot and leave the store untouched, while the same content as a
// current snapshot loads and comes up compacted.
func TestLoadRejectsPreVersion3Files(t *testing.T) {
	meta := gridMeta(1000)
	// Two adjacent boxes (mergeable) plus one contained duplicate, with rows.
	// The entries carry the per-entry "rows" count snapshots used to write;
	// Load ignores it, so those snapshots still load.
	body := `"tables":[{"table":"Grid","kinds":["int","int","float"],` +
		`"entries":[` +
		`{"dims":[[0,10],[0,10]],"at":"2024-01-01T00:00:00Z","rows":1},` +
		`{"dims":[[10,20],[0,10]],"at":"2024-01-01T00:00:00Z","rows":1},` +
		`{"dims":[[2,8],[2,8]],"at":"2023-12-31T00:00:00Z","rows":0}],` +
		`"rows":[["1","2","0.5"],["11","3","1.5"]]}]}`
	s := New(storage.NewDB())
	lookup := func(string) (*catalog.Table, bool) { return meta, true }
	for _, old := range []string{`{"version":1,` + body, `{"version":2,` + body} {
		if err := s.Load(strings.NewReader(old), lookup); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("pre-v3 file: err = %v, want ErrBadSnapshot", err)
		}
	}
	if s.EntryCount("Grid") != 0 || s.StoredRowCount("Grid") != 0 {
		t.Fatal("a rejected file must leave the store untouched")
	}
	if err := s.Load(strings.NewReader(`{"magic":"payless-semstore","version":3,`+body), lookup); err != nil {
		t.Fatal(err)
	}
	if !s.Covered("Grid", box2(0, 20, 0, 10), time.Time{}) {
		t.Error("coverage lost")
	}
	// The adjacent pair merges and the contained stale box is dropped: one
	// live entry.
	if got := s.EntryCount("Grid"); got != 1 {
		t.Errorf("entries should compact on load: %d live entries, want 1", got)
	}
	if got := s.StoredRowCount("Grid"); got != 2 {
		t.Errorf("rows = %d, want 2", got)
	}
}

// TestBoxOfWrongDimensionalityRefused: a coverage box whose dimension count
// is not the table's is refused where it enters — by Record, which WAL
// replay shares, and by Load, as a content error rather than ErrBadSnapshot
// — and the store is left as it was.
func TestBoxOfWrongDimensionalityRefused(t *testing.T) {
	meta := pollutionMeta()
	s := New(storage.NewDB())
	at := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	good := region.NewBox(region.Point(0), region.Interval{Lo: 1, Hi: 51})
	if _, err := s.Record(meta, good, batchOf(meta, []value.Row{row("A", 10, 1.5)}), at); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := s.Save(&before); err != nil {
		t.Fatal(err)
	}
	for _, b := range []region.Box{
		region.NewBox(region.Point(0)),
		region.NewBox(region.Point(0), region.Interval{Lo: 1, Hi: 51}, region.Point(3)),
		{},
	} {
		if _, err := s.Record(meta, b, batchOf(meta, nil), at); err == nil {
			t.Errorf("Record of a %d-dimensional box: no error", b.D())
		}
		if _, err := s.Record(meta, b, batchOf(meta, []value.Row{row("B", 20, 1)}), at); err == nil {
			t.Errorf("Record of a %d-dimensional box with a row: no error", b.D())
		}
	}
	lookup := func(string) (*catalog.Table, bool) { return meta, true }
	for _, dims := range []string{`[[0,1]]`, `[[0,1],[1,51],[0,4]]`, `[]`} {
		snap := `{"magic":"payless-semstore","version":3,"tables":[{"table":"Pollution","kinds":["string","int","float"],` +
			`"entries":[{"dims":` + dims + `,"at":"2026-07-01T12:00:00Z"}],"rows":[["B","20","1"]]}]}`
		err := s.Load(strings.NewReader(snap), lookup)
		if err == nil || errors.Is(err, ErrBadSnapshot) {
			t.Errorf("Load of an entry with dims %s: %v, want a content error", dims, err)
		}
	}
	var after bytes.Buffer
	if err := s.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("refused boxes changed the store:\n%s\n%s", before.Bytes(), after.Bytes())
	}
}
