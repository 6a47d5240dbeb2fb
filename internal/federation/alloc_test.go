package federation

import (
	"context"
	"testing"

	"payless/internal/catalog"
	"payless/internal/market"
)

// TestFederatedCallAllocations pins what one call through a federation of
// one endpoint costs on top of its transport: the zero policy (no circuit,
// no hedge) over an in-process caller is the path every market call takes.
// The limit is the 11 it took when an attempt built an "endpoint|dataset"
// key to find its circuit; reading the circuit from the endpoint's health
// record takes 10. The race detector adds allocations of its own, so the
// gate runs only without it.
func TestFederatedCallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	res := market.Result{Records: 1, Transactions: 1, Price: 1}
	f, err := New([]Endpoint{{Name: "market", Caller: market.CallerFunc(
		func(context.Context, catalog.AccessQuery) (market.Result, error) { return res, nil })}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const pinned = 11
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.Call(ctx, q("DS", "T")); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > pinned {
		t.Errorf("one federated call: %v allocations, pinned at %d", allocs, pinned)
	}
}
