package semstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/diskfault"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/wal"
)

// The log frames and snapshots are appended by hand; these tests hold them
// to what encoding/json writes for the walRecord and persistFile structs the
// decoders read, filled the way the reflective encoder filled them.

// jsonRows is the reflective cell form: a *string per cell holding
// Value.String, nil for NULL, and nil for no rows.
func jsonRows(rows []value.Row) [][]*string {
	if len(rows) == 0 {
		return nil
	}
	out := make([][]*string, len(rows))
	for i, row := range rows {
		out[i] = make([]*string, len(row))
		for k, v := range row {
			if v.K != value.Null {
				s := v.String()
				out[i][k] = &s
			}
		}
	}
	return out
}

func jsonDims(b region.Box) [][2]int64 {
	var dims [][2]int64
	for _, iv := range b.Dims {
		dims = append(dims, [2]int64{iv.Lo, iv.Hi})
	}
	return dims
}

// jsonSnapshot is the snapshot encoding/json writes for snap.
func jsonSnapshot(snap *storeSnap, records int64) ([]byte, error) {
	out := persistFile{Magic: snapshotMagic, Version: persistVersion, Records: records}
	for name, ts := range snap.tables {
		pt := persistTable{Table: name, Rows: jsonRows(ts.storedRows())}
		for _, c := range ts.meta.Schema {
			pt.Kinds = append(pt.Kinds, c.Type.String())
		}
		for id, e := range ts.entries {
			if !ts.isDead(id) {
				pt.Entries = append(pt.Entries, persistEntry{Dims: jsonDims(e.box), At: e.at})
			}
		}
		out.Tables = append(out.Tables, pt)
	}
	sort.Slice(out.Tables, func(i, j int) bool { return out.Tables[i].Table < out.Tables[j].Table })
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(out)
	return buf.Bytes(), err
}

// awkwardStrings are the texts an encoder gets wrong: JSON's and HTML's
// specials, control characters, invalid UTF-8, U+2028 and U+2029.
var awkwardStrings = []string{
	"", "NULL", "null", "plain", `"quoted"`, `back\slash`, "<a href='x'>&amp;</a>",
	"\x00\x01\x1f\x7f", "tab\tnl\nret\r", "\xff\xfe", "\xed\xa0\x80", "trailing \xe2\x82",
	"\xe2\x80\xa8\xe2\x80\xa9", "h\xc3\xa9llo \xf0\x9f\x98\x80",
}

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0x1p63, -0x1p63,
	1e21, 1e-7, -1.5, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3,
}

var zones = []*time.Location{
	time.UTC, time.FixedZone("EST", -5*3600), time.FixedZone("IST", 5*3600+30*60),
	time.FixedZone("NPT", 5*3600+45*60), time.FixedZone("LMT", -(3*3600 + 17*60 + 13)),
	time.FixedZone("NAMED0", 0), time.FixedZone("EDGE", 23*3600+59*60),
}

func randValue(rng *rand.Rand, k value.Kind) value.Value {
	if rng.Intn(6) == 0 {
		return value.NewNull()
	}
	switch k {
	case value.Int:
		switch rng.Intn(4) {
		case 0:
			return value.NewInt(math.MaxInt64)
		case 1:
			return value.NewInt(math.MinInt64)
		}
		return value.NewInt(rng.Int63n(2000) - 1000)
	case value.Float:
		if rng.Intn(2) == 0 {
			return value.NewFloat(awkwardFloats[rng.Intn(len(awkwardFloats))])
		}
		return value.NewFloat(rng.NormFloat64() * 1e6)
	case value.String:
		return value.NewString(randString(rng))
	}
	return value.NewNull()
}

func randString(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return awkwardStrings[rng.Intn(len(awkwardStrings))]
	}
	alphabet := []byte("ab \"\\<>&\x00\x1f\x7f\xc3\xa9\xe2\x80\xa8\xf0\x9f\x98\x80\xff")
	b := make([]byte, rng.Intn(10))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func randTime(rng *rand.Rand) time.Time {
	switch rng.Intn(8) {
	case 0:
		return time.Time{}
	case 1:
		return time.Date(9999, 12, 31, 23, 59, 59, 999999999, zones[rng.Intn(len(zones))])
	case 2:
		return time.Date(0, 1, 1, 0, 0, 0, 1, time.UTC)
	}
	t := time.Unix(rng.Int63n(4e9), rng.Int63n(1e9))
	if rng.Intn(3) == 0 {
		t = t.Truncate(time.Second)
	}
	return t.In(zones[rng.Intn(len(zones))])
}

func randKinds(rng *rand.Rand, n int) []value.Kind {
	kinds := make([]value.Kind, n)
	for i := range kinds {
		kinds[i] = value.Kind(rng.Intn(4))
	}
	return kinds
}

func randRows(rng *rand.Rand, kinds []value.Kind, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = make(value.Row, len(kinds))
		for k, kind := range kinds {
			rows[i][k] = randValue(rng, kind)
		}
	}
	return rows
}

func randBox(rng *rand.Rand, d int) region.Box {
	dims := make([]region.Interval, d)
	for i := range dims {
		lo := rng.Int63n(1<<40) - 1<<39
		if rng.Intn(5) == 0 {
			lo = math.MinInt64 + rng.Int63n(10)
		}
		dims[i] = region.Interval{Lo: lo, Hi: lo + rng.Int63n(1000)}
	}
	return region.Box{Dims: dims}
}

// prefixWriter takes limit bytes, then fails.
type prefixWriter struct {
	limit int
	buf   []byte
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.limit-len(w.buf))
	w.buf = append(w.buf, p[:n]...)
	if n < len(p) {
		return n, errors.New("sink full")
	}
	return n, nil
}

// TestWALFrameIsEncodingJSON: a log frame is byte for byte json.Marshal of
// its walRecord, over a corpus (NULL of every kind, awkward strings and
// floats, non-UTC zones, empty batches, zero-dimension boxes) and 300 random
// batches, and a frame written through Record replays as that record.
func TestWALFrameIsEncodingJSON(t *testing.T) {
	check := func(seq int64, table string, b region.Box, at time.Time, rows []value.Row) bool {
		t.Helper()
		want, err := json.Marshal(walRecord{Seq: seq, Table: table, Dims: jsonDims(b), At: at, Rows: jsonRows(rows)})
		if err != nil {
			t.Fatal(err)
		}
		atJSON, err := appendJSONTime(nil, at)
		if err != nil {
			t.Fatalf("time %v: %v", at, err)
		}
		got := appendWALRecord([]byte("frame"), seq, table, b, atJSON, value.BatchOf(schemaOf(nil, rows), rows))
		if string(got) != "frame"+string(want) {
			t.Errorf("got  %s\nwant %s", got[len("frame"):], want)
			return false
		}
		return true
	}
	at := time.Date(2026, 8, 1, 12, 30, 0, 123456789, time.FixedZone("CEST", 2*3600))
	var cells value.Row
	for _, s := range awkwardStrings {
		cells = append(cells, value.NewString(s))
	}
	for _, f := range awkwardFloats {
		cells = append(cells, value.NewFloat(f))
	}
	cells = append(cells, value.NewInt(0), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64), value.NewNull())
	nulls := make(value.Row, len(cells))
	check(1, "Weather", box2(0, 3, 20140401, 20140402), at, []value.Row{nulls, cells, nulls})
	check(2, "Weather", box2(0, 3, 20140401, 20140402), at, nil)           // an empty batch
	check(3, "Weather", box2(0, 3, 20140401, 20140402), at, []value.Row{}) // and a non-nil one
	check(4, "Flat", region.Box{}, at, []value.Row{{value.NewInt(1)}})     // a zero-dimension table
	check(math.MaxInt64, "<T&\"\\>\xff", region.Box{}, time.Time{}, nil)
	check(5, "Weather", box2(0, 3, 1, 2), at, []value.Row{{}})

	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 300; i++ {
		kinds := randKinds(rng, rng.Intn(6))
		if !check(rng.Int63(), randString(rng), randBox(rng, rng.Intn(4)), randTime(rng), randRows(rng, kinds, rng.Intn(8))) {
			break
		}
	}

	// Through Record: the log holds exactly the marshalled record.
	fs := diskfault.New()
	s, _ := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall, CheckpointEvery: -1})
	meta := pollutionMeta()
	rows := []value.Row{row("A", 7, math.Inf(-1)), {value.NewString("B"), value.NewInt(8), value.NewNull()}}
	b := region.NewBox(region.Point(0), region.Interval{Lo: 1, Hi: 101})
	if _, err := s.Record(meta, b, batchOf(meta, rows), at); err != nil {
		t.Fatal(err)
	}
	s.Close()
	want, _ := json.Marshal(walRecord{Seq: 1, Table: meta.Name, Dims: jsonDims(b), At: at, Rows: jsonRows(rows)})
	var frames []string
	if _, err := wal.Replay(fs, "/store/"+walFileName, func(p []byte) error {
		frames = append(frames, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0] != string(want) {
		t.Errorf("logged %q, want the one frame %s", frames, want)
	}
}

// TestWALRefusesUnencodableTime: a Record whose time encoding/json cannot
// write (a year outside [0, 9999], a zone offset of a day) fails with the
// error json.Marshal returns for its record, and appends and applies
// nothing.
func TestWALRefusesUnencodableTime(t *testing.T) {
	meta := pollutionMeta()
	b := region.NewBox(region.Point(0), region.Interval{Lo: 1, Hi: 11})
	for _, at := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("FAR", 24*3600)),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("FARTHER", -100*3600)),
	} {
		s, _ := durableStore(t, diskfault.New(), DurableOptions{Policy: wal.SyncPerCall})
		_, wantErr := json.Marshal(walRecord{Seq: 1, Table: meta.Name, At: at})
		if wantErr == nil {
			t.Fatalf("%v: encoding/json accepts it", at)
		}
		_, err := s.Record(meta, b, batchOf(meta, []value.Row{row("A", 5, 1)}), at)
		var me *json.MarshalerError
		if err == nil || !strings.HasSuffix(err.Error(), ": "+wantErr.Error()) || !errors.As(err, &me) {
			t.Errorf("%v: Record error %v, want %v", at, err, wantErr)
		}
		if appends, _, size := s.WALStats(); appends != 0 || size != 0 || s.recorded.Load() != 0 || s.EntryCount(meta.Name) != 0 {
			t.Errorf("%v: refused Record left %d appends in a %d-byte log, %d records, %d entries",
				at, appends, size, s.recorded.Load(), s.EntryCount(meta.Name))
		}
		s.Close()
	}
}

// TestSnapshotIsEncodingJSON: a snapshot is byte for byte what
// json.Encoder.Encode writes for its persistFile, over a corpus (the empty
// store, tombstoned entries, entry-less and row-less tables, a
// zero-dimension table, a store larger than one write chunk) and 200 random
// stores; an entry time encoding/json refuses fails with its error.
func TestSnapshotIsEncodingJSON(t *testing.T) {
	check := func(name string, snap *storeSnap, records int64) bool {
		t.Helper()
		want, wantErr := jsonSnapshot(snap, records)
		var got bytes.Buffer
		n, err := saveSnap(&got, snap, records)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: error %v, encoding/json's %v", name, err, wantErr)
				return false
			}
			return true
		}
		if got.String() != string(want) || n != int64(len(want)) {
			t.Errorf("%s: wrote %d bytes\n%s\nencoding/json writes %d bytes\n%s", name, n, got.String(), len(want), want)
			return false
		}
		return true
	}
	at := time.Date(2026, 8, 1, 0, 0, 0, 5, time.FixedZone("PDT", -7*3600))
	// table holds rows as they are, every column as values: the snapshot
	// encodes any cell a column may hold, whether or not it is a coordinate.
	table := func(meta *catalog.Table, entries []entry, rows []value.Row, dead ...int) *tableStore {
		values := *meta
		values.Attrs = make([]catalog.Attribute, len(meta.Schema))
		for i, c := range meta.Schema {
			values.Attrs[i] = catalog.Attribute{Name: c.Name, Type: c.Type, Binding: catalog.Output}
		}
		ts := cloneTableFor(&storeSnap{}, &values)
		ts.entries = entries
		for _, r := range rows {
			for i, v := range r {
				ts.vals[i].Append(v)
			}
			ts.n++
		}
		for _, id := range dead {
			ts.tombstone(id)
		}
		return ts
	}
	meta := pollutionMeta()
	flat := &catalog.Table{Name: "Flat", Schema: value.Schema{{Name: "V", Type: value.Float}},
		Attrs: []catalog.Attribute{{Name: "V", Type: value.Float, Binding: catalog.Output}}}
	empty := &catalog.Table{Name: "Empty"}
	check("empty store", &storeSnap{tables: map[string]*tableStore{}}, 0)
	check("records only", &storeSnap{}, 42)
	check("corpus", &storeSnap{tables: map[string]*tableStore{
		"Pollution": table(meta, []entry{
			{box: box2(0, 1, 1, 11), at: at},
			{box: box2(1, 2, 1, 11), at: at},
			{box: box2(2, 3, 5, 6), at: time.Time{}},
		}, []value.Row{row("A", 1, math.NaN()), {value.NewNull(), value.NewNull(), value.NewNull()}, row("<&>", 3, math.Copysign(0, -1))}, 1),
		"Flat":  table(flat, []entry{{box: region.Box{}, at: at}}, []value.Row{{value.NewFloat(0x1p63)}}),
		"Empty": table(empty, nil, nil),
		"Dead":  table(meta, []entry{{box: box2(0, 1, 1, 2), at: at}}, nil, 0),
	}}, 7)
	check("year 10000", &storeSnap{tables: map[string]*tableStore{
		"Pollution": table(meta, []entry{{box: box2(0, 1, 1, 2), at: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}}, nil),
	}}, 1)
	big := make([]value.Row, 3*snapChunk/16)
	for i := range big {
		big[i] = row(awkwardStrings[i%len(awkwardStrings)], int64(i), float64(i)/7)
	}
	several := &storeSnap{tables: map[string]*tableStore{"Pollution": table(meta, []entry{{box: meta.FullBox(), at: at}}, big)}}
	check("several chunks", several, 1)
	// A write that fails mid-snapshot ends it with the error and a prefix.
	full, _ := jsonSnapshot(several, 1)
	sink := &prefixWriter{limit: snapChunk + 100}
	if n, err := saveSnap(sink, several, 1); err == nil || n != int64(sink.limit) || !bytes.HasPrefix(full, sink.buf) {
		t.Errorf("failing sink: %d bytes, error %v; want %d bytes of the snapshot and an error", n, err, sink.limit)
	}

	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 200; i++ {
		snap := &storeSnap{tables: map[string]*tableStore{}}
		for n := rng.Intn(4); n > 0; n-- {
			kinds := randKinds(rng, rng.Intn(5))
			m := &catalog.Table{Name: randString(rng)}
			for k, kind := range kinds {
				m.Schema = append(m.Schema, value.Column{Name: string(rune('a' + k)), Type: kind})
			}
			var entries []entry
			var dead []int
			d := rng.Intn(3)
			for e := rng.Intn(5); e > 0; e-- {
				entries = append(entries, entry{box: randBox(rng, d), at: randTime(rng)})
				if rng.Intn(3) == 0 {
					dead = append(dead, len(entries)-1)
				}
			}
			snap.tables[m.Name] = table(m, entries, randRows(rng, kinds, rng.Intn(6)), dead...)
		}
		if !check("random", snap, rng.Int63n(3)*rng.Int63()) {
			break
		}
	}

	// Through Save: a store filled by Record writes what encoding/json would.
	s := New(storage.NewDB())
	if _, err := s.Record(meta, box2(0, 2, 1, 51), batchOf(meta, []value.Row{row("A", 3, 0.5), row("B", 50, math.Inf(1))}), at); err != nil {
		t.Fatal(err)
	}
	want, _ := jsonSnapshot(s.snap.Load(), s.recorded.Load())
	if got := saveString(t, s); got != string(want) {
		t.Errorf("Save wrote\n%s\nencoding/json writes\n%s", got, want)
	}
}
