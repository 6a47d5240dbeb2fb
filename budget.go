package payless

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrOverBudget is returned (wrapped, with details) when executing a query
// would exceed the configured spending budget. The query is not executed
// and nothing is billed.
var ErrOverBudget = errors.New("payless: estimated cost exceeds budget")

// Budget caps spending in data-market transactions. Zero fields are
// unlimited. Budgets act on the optimizer's estimate *before* any call is
// made — the whole point is that the money is never spent.
type Budget struct {
	// PerQuery rejects any single query whose estimated price exceeds it.
	PerQuery int64
	// Total rejects a query when the estimate plus everything already spent
	// or reserved by still-running queries would exceed it.
	Total int64
}

// Admitter is a spend-admission hook consulted around every query, after
// Config.Budget. Reserve is called with the plan's estimated transactions
// before any market call (an error rejects the query unbilled); Settle is
// called exactly once per successful Reserve with the same estimate and the
// transactions actually billed (zero when the query failed before
// spending). The daemon's tenant layer implements it to enforce per-tenant
// budgets and attribute spend to the querying tenant.
type Admitter interface {
	Reserve(ctx context.Context, estTransactions int64) error
	Settle(ctx context.Context, estTransactions, actualTransactions int64)
}

// budgetAdmitter is Config.Budget as an Admitter, enforced by reservation:
// a query's estimate is held from admission to settlement, and the
// headroom check and the reservation are one critical section, so two
// concurrent queries can never both be admitted against the same remaining
// budget.
type budgetAdmitter struct {
	limit Budget

	mu sync.Mutex
	// spent is every transaction billed so far, failed queries included;
	// reserved is the estimated spend of queries admitted but not yet
	// settled.
	spent, reserved int64
}

func (b *budgetAdmitter) Reserve(_ context.Context, est int64) error {
	if b.limit.PerQuery > 0 && est > b.limit.PerQuery {
		return fmt.Errorf("%w: estimated %d transactions, per-query budget %d",
			ErrOverBudget, est, b.limit.PerQuery)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limit.Total > 0 && b.spent+b.reserved+est > b.limit.Total {
		return fmt.Errorf("%w: estimated %d transactions on top of %d already spent and %d reserved, total budget %d",
			ErrOverBudget, est, b.spent, b.reserved, b.limit.Total)
	}
	b.reserved += est
	return nil
}

// Settle releases the reservation and books the actual spend in one
// critical section, so the headroom freed by the estimate and the headroom
// consumed by the bill move together.
func (b *budgetAdmitter) Settle(_ context.Context, est, actual int64) {
	b.mu.Lock()
	b.reserved -= est
	b.spent += actual
	b.mu.Unlock()
}
