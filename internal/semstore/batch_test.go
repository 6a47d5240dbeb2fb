package semstore_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"payless/internal/catalog"
	"payless/internal/diskfault"
	"payless/internal/semstore"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/wal"
)

// batchMeta is mixedMeta with a Null-kind output column, so a batch holds
// NULL in every kind.
func batchMeta() *catalog.Table {
	meta := mixedMeta()
	meta.Schema = append(meta.Schema, value.Column{Name: "N", Type: value.Null})
	meta.Attrs = append(meta.Attrs, catalog.Attribute{Name: "N", Type: value.Null, Binding: catalog.Output})
	return meta
}

// batchRow draws a row of batchMeta: mixedRow's, whose String output is now
// and then text that is not UTF-8, or the text such bytes are stored as.
func batchRow(rng *rand.Rand, meta *catalog.Table) value.Row {
	row := append(mixedRow(rng, meta), value.Value{})
	if rng.Intn(4) == 0 {
		row[5] = value.NewString([]string{"\xff", "a\xfe\xffb", "\ufffd", "\ufffd\ufffdb"}[rng.Intn(4)])
	}
	return row
}

// asStored is row as Record stores it: each byte of a String output that is
// not UTF-8 one U+FFFD.
func asStored(row value.Row) value.Row {
	out := row.Clone()
	if s := out[5].Str(); out[5].K == value.String && !utf8.ValidString(s) {
		out[5] = value.NewString(strings.Map(func(r rune) rune { return r }, s))
	}
	return out
}

// drawBatch returns rows as a batch made one of the four ways batches are
// made: from rows, cell by cell a column at a time, as two batches appended
// and as a selection from a larger batch.
func drawBatch(rng *rand.Rand, meta *catalog.Table, rows []value.Row) value.Batch {
	switch rng.Intn(4) {
	case 0:
		return value.BatchOf(meta.Schema, rows)
	case 1:
		b := value.NewBatch(meta.Schema, len(rows))
		for c := range meta.Schema {
			for r, row := range rows {
				b.Set(r, c, row[c])
			}
		}
		return b
	case 2:
		half := rng.Intn(len(rows) + 1)
		b := value.BatchOf(meta.Schema, rows[:half])
		b.Append(value.BatchOf(meta.Schema, rows[half:]))
		return b
	}
	var all []value.Row
	var ids []int32
	for _, row := range rows {
		for rng.Intn(2) == 0 {
			all = append(all, batchRow(rng, meta))
		}
		ids, all = append(ids, int32(len(all))), append(all, row)
	}
	return value.BatchOf(meta.Schema, all).Select(ids)
}

// TestRecordBatchMatchesReference is the differential test of Record over
// random batches, made every way batches are made, with NULLs in every
// kind, −0, two NaN payloads, Ints past ±2^53, every categorical value,
// text that is not UTF-8, and rows repeated inside a batch and from earlier
// ones. After every Record the store reads as semstore.RowReference holding
// the rows as stored, and the batch handed in is unchanged; so do a store
// loaded from its snapshot and one rebuilt by WAL replay. A failure names
// the seed to rerun.
func TestRecordBatchMatchesReference(t *testing.T) {
	meta := batchMeta()
	lookup := func(name string) (*catalog.Table, bool) { return meta, name == meta.Name }
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%s\nrepro: go test -run 'TestRecordBatchMatchesReference/seed=%d$' ./internal/semstore/", fmt.Sprintf(format, args...), seed)
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
					fail("%s: the store holds %d rows, the reference %d:\n%v\n%v", what, len(got), len(ref.Rows()), got, ref.Rows())
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
				rows := make([]value.Row, 1+rng.Intn(40))
				for i := range rows {
					if len(drawn) > 0 && rng.Intn(3) == 0 {
						rows[i] = drawn[rng.Intn(len(drawn))].Clone()
					} else {
						rows[i] = batchRow(rng, meta)
					}
				}
				drawn = append(drawn, rows...)
				batch := drawBatch(rng, meta, rows)
				if _, err := live.Record(meta, meta.FullBox(), batch, time.Unix(1700000000, 0)); err != nil {
					fail("record %d: %v", rec, err)
				}
				if got := batch.Rows(); !sameBits(got, rows) {
					fail("record %d changed the batch it was handed:\n%v\n%v", rec, got, rows)
				}
				stored := make([]value.Row, len(rows))
				for i, row := range rows {
					stored[i] = asStored(row)
				}
				ref.Record(stored)
				check(fmt.Sprintf("record %d", rec), live, ref)
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
