package value

import (
	"math"
	"testing"
)

var batchSchema = Schema{{Name: "I", Type: Int}, {Name: "F", Type: Float}, {Name: "S", Type: String}, {Name: "N", Type: Null}}

// batchRows has NULL in every kind, −0, a NaN payload and an Int past 2^53.
func batchRows() []Row {
	return []Row{
		{NewInt(1<<53 + 1), NewFloat(math.Copysign(0, -1)), NewString("a"), NewNull()},
		{NewNull(), NewFloat(math.Float64frombits(0x7ff8000000000001)), NewNull(), NewNull()},
		{NewInt(-1), NewNull(), NewString(""), NewNull()},
	}
}

func sameRows(t *testing.T, what string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for r := range want {
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				t.Fatalf("%s: row %d is %v, want %v", what, r, got[r], want[r])
			}
		}
	}
}

// TestBatchRoundTripsRows: rows made a batch come back bit for bit, a row
// at a time and whole, and a cell of another kind than its column's is
// converted as Set documents.
func TestBatchRoundTripsRows(t *testing.T) {
	rows := batchRows()
	b := BatchOf(batchSchema, rows)
	sameRows(t, "Rows", b.Rows(), rows)
	for r := range rows {
		sameRows(t, "Row", []Row{b.Row(r, make(Row, 4))}, rows[r:r+1])
	}
	odd := BatchOf(batchSchema, []Row{{NewFloat(2.9), NewInt(3), NewInt(4), NewInt(5)}})
	sameRows(t, "converted", odd.Rows(), []Row{{NewInt(2), NewFloat(3), NewString(""), NewNull()}})
}

// TestBatchAppendAndSelect: appending keeps each side's NULLs, wherever the
// seam falls in a bitmap byte, an empty side changes nothing, and Select
// picks rows in the order asked, repeats included.
func TestBatchAppendAndSelect(t *testing.T) {
	rows := batchRows()
	var all []Row
	b := NewBatch(batchSchema, 0)
	for range 5 { // seams at 3, 6, 9, 12: inside and across bitmap bytes
		b.Append(BatchOf(batchSchema, rows))
		b.Append(Batch{})
		all = append(all, rows...)
	}
	sameRows(t, "appended", b.Rows(), all)
	ids := []int32{14, 0, 4, 4, 9}
	var want []Row
	for _, id := range ids {
		want = append(want, all[id])
	}
	sameRows(t, "selected", b.Select(ids).Rows(), want)
	if got := b.Select(nil); got.N != 0 || len(got.Cols) != len(batchSchema) {
		t.Fatalf("an empty selection: %d rows of %d columns", got.N, len(got.Cols))
	}
}
