package payless

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"payless/internal/market"
	"payless/internal/tenant"
	"payless/internal/workload"
)

// tenantSetup opens the standard test client with a tenant registry as its
// Admitter, one tenant capped at budget, and returns a query context
// carrying that tenant.
func tenantSetup(t *testing.T, budget int64) (*Client, *market.Market, *workload.WHW, context.Context) {
	t.Helper()
	reg, err := tenant.NewRegistry(0, tenant.Config{Name: "a", Key: "ka", Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	client, m, w := testSetup(t, func(c *Config) { c.Admitter = reg })
	ten, _ := reg.Lookup("a")
	return client, m, w, tenant.WithTenant(context.Background(), ten)
}

// TestPerQueryBudgetBlocksBeforeSpending: a query whose estimate exceeds
// the admitter's headroom is refused before any market call, and a query
// that fits still runs.
func TestPerQueryBudgetBlocksBeforeSpending(t *testing.T) {
	client, m, w, ctx := tenantSetup(t, 1)
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[len(w.Dates)-1])
	_, err := client.QueryContext(ctx, sql)
	if !errors.Is(err, tenant.ErrTenantOverBudget) {
		t.Fatalf("want ErrTenantOverBudget, got %v", err)
	}
	meter, _ := m.MeterOf("acct")
	if meter.Calls != 0 {
		t.Error("budget must block before any market call")
	}
	// A cheap query still runs.
	cheap := "SELECT COUNT(ZipCode) FROM Pollution WHERE Rank >= 1 AND Rank <= 2"
	if _, err := client.QueryContext(ctx, cheap); err != nil {
		t.Fatalf("cheap query blocked: %v", err)
	}
}

// TestTotalBudgetAccumulates: spend accumulates across queries until the
// admitter refuses, and never overshoots the budget.
func TestTotalBudgetAccumulates(t *testing.T) {
	client, _, w, ctx := tenantSetup(t, 12)
	q := func(i int) string {
		return fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
			w.Dates[i], w.Dates[i+1])
	}
	ranOut := false
	for i := 0; i < 20; i += 2 {
		_, err := client.QueryContext(ctx, q(i))
		if errors.Is(err, tenant.ErrTenantOverBudget) {
			ranOut = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !ranOut {
		t.Fatal("total budget never triggered")
	}
	if spent := client.TotalSpend().Transactions; spent > 12 {
		t.Errorf("spent %d beyond total budget 12", spent)
	}
	ten, _ := tenant.From(ctx)
	if spent, total := ten.Spend(), client.TotalSpend().Transactions; spent != total {
		t.Errorf("tenant ledger %d != client spend %d", spent, total)
	}
}

// TestZeroBudgetIsUnlimited: a client without an Admitter admits
// everything.
func TestZeroBudgetIsUnlimited(t *testing.T) {
	client, _, w := testSetup(t, nil)
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[10])
	if _, err := client.Query(sql); err != nil {
		t.Fatalf("unlimited budget blocked a query: %v", err)
	}
}
