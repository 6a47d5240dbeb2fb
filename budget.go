package payless

import "context"

// Admitter is the client's one spend gate, consulted around every query.
// Reserve is called with the plan's estimated transactions before any
// market call (an error rejects the query unbilled); Settle is called
// exactly once per successful Reserve with the same estimate and the
// transactions actually billed (zero when the query failed before
// spending). The daemon's tenant layer implements it to enforce per-tenant
// and global budgets and attribute spend to the querying tenant. A nil
// Admitter admits everything.
type Admitter interface {
	Reserve(ctx context.Context, estTransactions int64) error
	Settle(ctx context.Context, estTransactions, actualTransactions int64)
}
