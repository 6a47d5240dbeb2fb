// Package overload is the buyer stack's overload-protection layer: the
// per-query retry budget every retrying layer consults before it spends
// another attempt, and the deadline check of the call scheduler's coalesce
// window.
//
// The problem it solves is retry multiplication. The stack retries at
// three layers — the HTTP connector retries transport failures, the
// federation layer fails over across mirrors and hedges slow calls — and
// without a shared cap a single degraded mirror turns one query's C calls
// into C × connectorRetries × failovers wire attempts: a retry storm that
// arrives exactly when the market is least able to absorb it. The fix is
// the classic retry budget (Finagle, gRPC): one token pool per query,
// deposited when logical calls are issued, withdrawn by every extra
// attempt at any layer. Retries that would exceed the pool fail with
// ErrRetryBudget — typed, so front ends can distinguish "we gave up to
// protect the system" from a tripped breaker's ErrCircuitOpen.
//
// Deadline propagation is the second half: a per-request deadline rides
// the query context down to the call scheduler, which never parks a
// request for a window its deadline cannot outlast (ShortOf). Below the
// scheduler a wire call carries no deadline, since other queries may share
// it; it ends when its last waiter detaches.
package overload

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrRetryBudget means the query's retry budget is exhausted: the failing
// call could have been retried (or failed over), but the query already
// spent its attempt allowance across all layers. Distinct from
// ErrCircuitOpen — a breaker refuses calls to a known-bad dataset, the
// budget refuses retries regardless of destination.
var ErrRetryBudget = errors.New("overload: retry budget exhausted")

// ErrCircuitOpen is returned (wrapped) for calls short-circuited by an open
// circuit breaker: the endpoint failed repeatedly for the dataset and the
// breaker refuses calls until its cooldown elapses. The query fails fast
// instead of burning retries — and money — against a seller that is down.
// It lives here, beside ErrRetryBudget, so the engine can classify breaker
// refusals without importing the federation layer that trips them.
var ErrCircuitOpen = errors.New("circuit breaker open")

// CircuitOpenError is the concrete error a breaker refusal carries: it
// matches errors.Is(err, ErrCircuitOpen) and adds how long until the breaker
// will next admit a probe, so transports facing end users (the daemon) can
// emit an honest Retry-After instead of a generic failure.
type CircuitOpenError struct {
	// RetryAfter is the time remaining until the cooldown elapses. Zero
	// means a probe is already deciding (half-open): retrying immediately
	// is allowed but only useful once the probe resolves.
	RetryAfter time.Duration
}

// Error implements error.
func (e *CircuitOpenError) Error() string {
	if e.RetryAfter > 0 {
		return "circuit breaker open (retry in " + e.RetryAfter.String() + ")"
	}
	return "circuit breaker open (probe in flight)"
}

// Unwrap makes errors.Is(err, ErrCircuitOpen) hold.
func (e *CircuitOpenError) Unwrap() error { return ErrCircuitOpen }

// GrantPerCall is the credit each fresh logical market call deposits into
// the query's budget. At 0.5 a query issuing C calls may spend roughly
// C/2 extra attempts on top of the base credit — "max total attempts ≈
// calls × 1.5" once the base is amortised.
const GrantPerCall = 0.5

// DefaultBaseCredit is every query's starting credit: enough to ride out a
// couple of transient faults on a small query without enabling a storm on
// a large one.
const DefaultBaseCredit = 3.0

// RetryBudget is one query's shared attempt allowance. Connector retries,
// federation failovers, and hedges all draw from the same pool, so layered
// retries cannot multiply. The zero of *RetryBudget (nil) is a valid
// unlimited budget: every method no-ops and Spend always admits.
type RetryBudget struct {
	mu      sync.Mutex
	credit  float64
	granted float64
	spent   int64
	denied  int64
}

// NewRetryBudget returns a budget starting with base credit (base < 0 is
// clamped to 0; pair with Grant deposits per call).
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
// attaches one per query; every retrying layer below finds it with
// BudgetFrom.
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

// Grant deposits n tokens into the context's budget; a no-op without one.
func Grant(ctx context.Context, n float64) {
	BudgetFrom(ctx).Grant(n)
}

// Spend withdraws n tokens from the context's budget, reporting admission.
// Always true without a budget.
func Spend(ctx context.Context, n float64) bool {
	return BudgetFrom(ctx).Spend(n)
}

// ShortOf reports whether ctx carries a deadline with less than d left: a
// sleep or park of length d would outlive the caller. Deadline-free
// contexts are never short.
func ShortOf(ctx context.Context, d time.Duration) bool {
	dl, ok := ctx.Deadline()
	return ok && time.Until(dl) < d
}

// Jitter spreads d uniformly into [d×(1-f), d×(1+f)] so synchronized
// clients told to retry do not come back in lockstep. rnd is a [0,1)
// source (tests inject a seeded one); nil uses the global math/rand.
// f is clamped to [0,1]; non-positive d is returned unchanged.
func Jitter(d time.Duration, f float64, rnd func() float64) time.Duration {
	if d <= 0 || f <= 0 {
		return d
	}
	if f > 1 {
		f = 1
	}
	if rnd == nil {
		rnd = rand.Float64
	}
	// rnd in [0,1) → factor in [1-f, 1+f).
	factor := 1 - f + 2*f*rnd()
	return time.Duration(float64(d) * factor)
}
