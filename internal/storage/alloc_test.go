package storage_test

import (
	"testing"

	"payless/internal/storage"
	"payless/internal/workload"
)

// TestHashJoinAllocations is the deterministic regression guard for the join
// (wall-clock ratios belong to benchmarks/run.sh): joining SF-1 Orders with
// Lineitem — 8 000 build rows, 30 000 probe rows, 30 000 twelve-column output
// rows — allocates the hash table and a logarithmic number of row slabs, not
// two objects per output row.
func TestHashJoinAllocations(t *testing.T) {
	d := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	orders := storage.Relation{Schema: d.Orders.Schema, Rows: d.OrdersRows}
	lineitem := storage.Relation{Schema: d.Lineitem.Schema, Rows: d.LineitemRows}
	var out storage.Relation
	allocs := testing.AllocsPerRun(5, func() {
		out = storage.HashJoin(orders, lineitem, []int{0}, []int{0})
	})
	if out.Len() != len(d.LineitemRows) {
		t.Fatalf("join produced %d rows, want one per lineitem (%d)", out.Len(), len(d.LineitemRows))
	}
	if allocs > 64 {
		t.Errorf("HashJoin(Orders, Lineitem): %v allocations, want at most 64", allocs)
	}
	t.Logf("HashJoin(Orders, Lineitem): %v allocations for %d rows", allocs, out.Len())
}
