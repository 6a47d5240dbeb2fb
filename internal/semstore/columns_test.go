package semstore_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/diskfault"
	"payless/internal/region"
	"payless/internal/semstore"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/wal"
)

// mixedMeta is a table with a column of every way the store keeps one: a
// numeric axis whose coordinates reach past ±2^53, a categorical axis over
// strings (held as domain indexes), a categorical axis over integers (held
// as values beside its coordinates), and Float, Int and String outputs.
func mixedMeta() *catalog.Table {
	strs := []value.Value{value.NewString(""), value.NewString("NULL"), value.NewString("a"),
		value.NewString("h\xc3\xa9llo \"<&>\""), value.NewString("\x00\x1f")}
	ints := []value.Value{value.NewInt(3), value.NewInt(1<<60 + 1), value.NewInt(-7)}
	return &catalog.Table{
		Dataset: "Synth",
		Name:    "Mixed",
		Schema: value.Schema{
			{Name: "K", Type: value.Int}, {Name: "C", Type: value.String}, {Name: "G", Type: value.Int},
			{Name: "F", Type: value.Float}, {Name: "I", Type: value.Int}, {Name: "S", Type: value.String},
		},
		Attrs: []catalog.Attribute{
			{Name: "K", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: -1 << 62, Max: 1 << 62},
			{Name: "C", Type: value.String, Binding: catalog.Free, Class: catalog.CategoricalAttr, Domain: strs},
			{Name: "G", Type: value.Int, Binding: catalog.Free, Class: catalog.CategoricalAttr, Domain: ints},
			{Name: "F", Type: value.Float, Binding: catalog.Output},
			{Name: "I", Type: value.Int, Binding: catalog.Output},
			{Name: "S", Type: value.String, Binding: catalog.Output},
		},
	}
}

// mixedRow draws a row of mixedMeta: keys near 0 and past ±2^53, every
// categorical value, floats with −0.0, NaNs of two payloads and the
// infinities, and NULL in every output.
func mixedRow(rng *rand.Rand, meta *catalog.Table) value.Row {
	keys := []int64{0, 1, -1, 1<<53 + 1, -(1<<53 + 1), 1<<62 - 2, -1 << 62} // plus 0 to 2: inside the domain
	floats := []value.Value{value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN()),
		value.NewFloat(math.Float64frombits(0x7ff8000000000001)), value.NewFloat(math.Inf(-1)),
		value.NewFloat(0x1p63), value.NewFloat(1.5), value.NewNull()}
	outInts := []value.Value{value.NewInt(1<<53 + 1), value.NewInt(math.MinInt64), value.NewInt(2), value.NewNull()}
	outStrs := []value.Value{value.NewString("NULL"), value.NewString(""), value.NewString("x\ny"), value.NewNull()}
	return value.Row{
		value.NewInt(keys[rng.Intn(len(keys))] + rng.Int63n(3)),
		meta.Attrs[1].Domain[rng.Intn(len(meta.Attrs[1].Domain))],
		meta.Attrs[2].Domain[rng.Intn(len(meta.Attrs[2].Domain))],
		floats[rng.Intn(len(floats))],
		outInts[rng.Intn(len(outInts))],
		outStrs[rng.Intn(len(outStrs))],
	}
}

// randomBox draws a read of mixedMeta's space: a key range around a drawn
// key or the whole axis, one categorical value or all of them.
func randomBox(rng *rand.Rand, meta *catalog.Table, rows []value.Row) region.Box {
	q := meta.FullBox()
	if len(rows) > 0 && rng.Intn(3) > 0 {
		k := rows[rng.Intn(len(rows))][0].Int64()
		q.Dims[0] = region.Interval{Lo: k - rng.Int63n(3), Hi: k + 1 + rng.Int63n(3)}
	}
	for d := 1; d < 3; d++ {
		if rng.Intn(2) == 0 {
			c := rng.Int63n(q.Dims[d].Hi)
			q.Dims[d] = region.Interval{Lo: c, Hi: c + 1}
		}
	}
	return q
}

// readRows reads the rows of s inside q through SelectIn's columns.
func readRows(s *semstore.Store, meta *catalog.Table, q region.Box) []value.Row {
	var ids []int32
	cols := make([]storage.Column, len(meta.Schema))
	n, all := s.SelectIn(meta, []region.Box{q}, &ids, cols)
	if all {
		for id := range n {
			ids = append(ids, int32(id))
		}
	}
	out := make([]value.Row, len(ids))
	for i, id := range ids {
		out[i] = make(value.Row, len(cols))
		for c := range cols {
			out[i][c] = cols[c].At(int(id))
		}
	}
	return out
}

// sameBits reports whether two row lists are cell for cell the same kind
// and payload bits.
func sameBits(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				return false
			}
		}
	}
	return true
}

// TestColumnsRoundTripRows is the differential test of the columnar store:
// random Record schedules, with duplicates within and across calls, over a
// table with a column of every kind of placement. After every Record each
// stored row, rebuilt from the columns, is bit for bit the first copy
// Record accepted of it (two NaNs of different payloads are one row, −0.0
// and 0 two), and SelectIn reads over random boxes return the rows of
// semstore.RowReference in its order. At the end a store loaded from the
// snapshot and one rebuilt by WAL replay must read alike. A failure names
// the seed to rerun.
func TestColumnsRoundTripRows(t *testing.T) {
	meta := mixedMeta()
	lookup := func(name string) (*catalog.Table, bool) { return meta, name == meta.Name }
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%s\nrepro: go test -run 'TestColumnsRoundTripRows/seed=%d$' ./internal/semstore/", fmt.Sprintf(format, args...), seed)
			}
			rng := rand.New(rand.NewSource(seed))
			fsys := diskfault.New()
			open := func() *semstore.Store {
				s := semstore.New(storage.NewDB())
				if _, err := s.EnableDurability("/store", semstore.DurableOptions{FS: fsys, Policy: wal.SyncOff, Lookup: lookup, CheckpointEvery: -1}); err != nil {
					t.Fatal(err)
				}
				return s
			}
			check := func(what string, s *semstore.Store, ref *semstore.RowReference) {
				t.Helper()
				if got := readRows(s, meta, meta.FullBox()); !sameBits(got, ref.Rows()) {
					fail("%s: the store rebuilds %d rows, the first copies recorded are %d rows:\n%v\n%v", what, len(got), len(ref.Rows()), got, ref.Rows())
				}
				for range 8 {
					q := randomBox(rng, meta, ref.Rows())
					if got, want := readRows(s, meta, q), ref.In(q); !sameBits(got, want) {
						fail("%s: SelectIn(%v) reads %v, the reference %v", what, q, got, want)
					}
				}
			}
			live, ref := open(), semstore.NewRowReference(meta)
			var drawn []value.Row
			for rec := range 30 {
				batch := make([]value.Row, 1+rng.Intn(40))
				for i := range batch {
					if len(drawn) > 0 && rng.Intn(3) == 0 {
						batch[i] = drawn[rng.Intn(len(drawn))].Clone()
					} else {
						batch[i] = mixedRow(rng, meta)
					}
				}
				drawn = append(drawn, batch...)
				if _, err := live.Record(meta, meta.FullBox(), value.BatchOf(meta.Schema, batch), time.Unix(1700000000, 0)); err != nil {
					fail("record %d: %v", rec, err)
				}
				ref.Record(batch)
				check(fmt.Sprintf("record %d", rec), live, ref)
			}
			if len(ref.Rows()) <= 256 {
				fail("%d distinct rows: the schedule does not fill one chunk", len(ref.Rows()))
			}
			var snap bytes.Buffer
			if err := live.Save(&snap); err != nil {
				t.Fatal(err)
			}
			loaded := semstore.New(storage.NewDB())
			if err := loaded.Load(&snap, lookup); err != nil {
				t.Fatal(err)
			}
			check("loaded", loaded, ref)
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			replayed := open()
			defer replayed.Close()
			check("replayed", replayed, ref)
		})
	}
}
