package federation

import (
	"context"
	"sync"
)

// grantPerCall is the credit each fresh logical market call deposits into
// the query's budget. At 0.5 a query issuing C calls may spend roughly
// C/2 extra attempts on top of the base credit — "max total attempts ≈
// calls × 1.5" once the base is amortised.
const grantPerCall = 0.5

// DefaultBaseCredit is every query's starting credit: enough to ride out a
// couple of transient faults on a small query without enabling a storm on
// a large one.
const DefaultBaseCredit = 3.0

// RetryBudget is one query's shared attempt allowance, the classic retry
// budget (Finagle, gRPC): without it a degraded mirror turns a query's C
// calls into C × retries × failovers wire attempts, just when the market
// can least absorb them. Caller.Call deposits into it once per logical
// call; every retry, failover and hedge withdraws a token, and one it
// cannot fund fails with market.ErrRetryBudget. A nil *RetryBudget is a
// valid unlimited budget: every method no-ops and Spend always admits.
type RetryBudget struct {
	mu      sync.Mutex
	credit  float64
	granted float64
	spent   int64
	denied  int64
}

// NewRetryBudget returns a budget starting with base credit (base < 0 is
// clamped to 0; every logical call deposits more).
func NewRetryBudget(base float64) *RetryBudget {
	if base < 0 {
		base = 0
	}
	return &RetryBudget{credit: base}
}

// Grant deposits n tokens (fractions allowed). Nil-safe.
func (b *RetryBudget) Grant(n float64) {
	if b == nil || n <= 0 {
		return
	}
	b.mu.Lock()
	b.credit += n
	b.granted += n
	b.mu.Unlock()
}

// Spend withdraws n tokens if the pool holds them, reporting whether the
// attempt is admitted. A nil budget admits everything (unlimited).
func (b *RetryBudget) Spend(n float64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.credit < n {
		b.denied++
		return false
	}
	b.credit -= n
	b.spent++
	return true
}

// Stats snapshots the budget: remaining credit, total granted on top of
// the base, attempts admitted, and attempts denied.
func (b *RetryBudget) Stats() (credit, granted float64, spent, denied int64) {
	if b == nil {
		return 0, 0, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.credit, b.granted, b.spent, b.denied
}

// budgetKey keys the budget on a query context.
type budgetKey struct{}

// WithBudget attaches a retry budget to a query context. The client
// attaches one per query; Caller.Call finds it with BudgetFrom.
func WithBudget(ctx context.Context, b *RetryBudget) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom extracts the context's retry budget; nil (unlimited) when the
// query did not attach one — background maintenance calls, direct library
// use without overload protection.
func BudgetFrom(ctx context.Context) *RetryBudget {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(budgetKey{}).(*RetryBudget)
	return b
}

// spend withdraws the one token an extra attempt costs from the context's
// budget, reporting admission. It is the only place tokens are spent.
func spend(ctx context.Context) bool {
	return BudgetFrom(ctx).Spend(1)
}
