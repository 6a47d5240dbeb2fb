package payless

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"payless/internal/market"
	"payless/internal/tenant"
)

// TestBudgetReservationBlocksConcurrentOverspend is the regression test for
// the budget TOCTOU: two concurrent queries of one tenant, each estimated
// at 4 transactions, race the tenant's budget of 4 through the client's
// Admitter. The unreserved check-then-execute
// admitted both (each saw zero spent before either settled) and jointly
// billed 8; the reservation admits exactly one. The wire call is gated so
// the admitted query demonstrably has not settled while the second query is
// being admitted — the race window is held open, not hoped for.
func TestBudgetReservationBlocksConcurrentOverspend(t *testing.T) {
	m := stressMarket(t, "acct")
	gc := &gatedCaller{inner: market.AccountCaller{Market: m, Key: "acct"}}
	reg, err := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka", Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(Config{
		Tables:               m.ExportCatalog(),
		Caller:               gc,
		TuplesPerTransaction: map[string]int{"DS": 10},
		Admitter:             reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ten, _ := reg.Lookup("a")
	ctx := tenant.WithTenant(context.Background(), ten)
	gate := make(chan struct{})
	gc.setGate(gate)

	// Disjoint boxes of 40 rows each: both estimate 4 transactions, so the
	// 4-transaction budget admits exactly one.
	sqls := []string{
		"SELECT v FROM T WHERE a >= 1 AND a <= 40",
		"SELECT v FROM T WHERE a >= 41 AND a <= 80",
	}
	var wg sync.WaitGroup
	var failed atomic.Int64
	errs := make([]error, len(sqls))
	for i, sql := range sqls {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			_, errs[i] = client.QueryContext(ctx, sql)
			if errs[i] != nil {
				failed.Add(1)
			}
		}(i, sql)
	}
	// Both queries have been admitted or rejected once each has either
	// reached the gated wire call or failed; only then is the gate released.
	waitForCond(t, "both queries to be admitted or rejected", func() bool {
		return gc.arrivals()+failed.Load() >= int64(len(sqls))
	})
	close(gate)
	wg.Wait()

	var ok, over int
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, tenant.ErrTenantOverBudget):
			over++
		default:
			t.Fatalf("query %d failed outside the budget: %v", i, err)
		}
	}
	if ok != 1 || over != 1 {
		t.Fatalf("budget of 4 admitted %d queries (%d over-budget); want exactly 1 admitted", ok, over)
	}
	if spent := client.TotalSpend().Transactions; spent > 4 || ten.Spend() != spent {
		t.Fatalf("client spent %d transactions and the tenant ledger holds %d, budget 4", spent, ten.Spend())
	}
	meter, _ := m.MeterOf("acct")
	if meter.Transactions > 4 {
		t.Fatalf("seller billed past the budget: %d transactions, budget 4", meter.Transactions)
	}
	// The budget headroom is back after settlement: a covered re-read of the
	// admitted box is free and must pass the check.
	for i, err := range errs {
		if err == nil {
			if _, err := client.QueryContext(ctx, sqls[i]); err != nil {
				t.Fatalf("covered re-read rejected: %v", err)
			}
		}
	}
}
