package payless

import (
	"time"

	"payless/internal/core"
)

// Option customises a Config before the Client is built. Options are
// accepted by both Open and OpenHTTP; zero-value Config fields keep their
// documented defaults. Because Option is an alias-shaped function type,
// existing callers that pass bare func(*payless.Config) literals keep
// compiling unchanged.
type Option func(*Config)

// WithConsistency selects result-freshness vs. price (Weak, Window, Strong).
func WithConsistency(cons Consistency) Option {
	return func(c *Config) { c.Consistency = cons }
}

// WithAdmitter installs the client's spend gate: multi-tenant front ends
// (cmd/paylessd) use it to bind per-tenant and global budgets onto one
// shared client. The admitter sees the query's context, so per-caller
// identity can ride on it.
func WithAdmitter(a Admitter) Option {
	return func(c *Config) { c.Admitter = a }
}

// WithFetchConcurrency bounds in-flight market calls per plan step.
// The bill is identical at any setting; only wall-clock latency changes.
func WithFetchConcurrency(n int) Option {
	return func(c *Config) { c.FetchConcurrency = n }
}

// WithTracer installs a per-query execution tracer. Use &CollectTracer{}
// to populate Result.Trace on every query; nil (the default) disables
// tracing at near-zero cost.
func WithTracer(t Tracer) Option {
	return func(c *Config) { c.Tracer = t }
}

// WithDurableStore enables durable mode: the semantic store keeps a
// write-ahead log and atomic snapshots under dir, and Open recovers
// whatever a previous process had made durable. See Config.StoreDir.
func WithDurableStore(dir string) Option {
	return func(c *Config) { c.StoreDir = dir }
}

// WithStoreSync selects the durable store's WAL fsync cadence
// (StoreSyncPerCall, StoreSyncBatched, StoreSyncOff).
func WithStoreSync(policy StoreSyncPolicy) Option {
	return func(c *Config) { c.StoreSync = policy }
}

// WithCallPolicy sets how hard one market call may fight for an answer:
// when it hedges against the next-ranked mirror and when a failing mirror's
// circuit opens. See Config.Calls.
func WithCallPolicy(p CallPolicy) Option {
	return func(c *Config) { c.Calls = p }
}

// WithDefaultTuplesPerTransaction sets the page size t for datasets that
// don't declare their own.
func WithDefaultTuplesPerTransaction(t int) Option {
	return func(c *Config) { c.DefaultTuplesPerTransaction = t }
}

// WithMinimizeCalls optimises for the number of RESTful calls instead of
// transactions ("Minimizing Calls" in the paper's evaluation).
func WithMinimizeCalls() Option {
	return func(c *Config) { c.MinimizeCalls = true }
}

// WithPlanCache enables the parameterized plan-template cache: compiled
// statements and their optimized plans are cached by statement skeleton,
// and repeated skeletons skip parsing, binding and optimization, with plan
// invalidation on semantic-store and statistics changes. size is the LRU
// capacity in skeletons; size <= 0 uses the default (1024).
func WithPlanCache(size int) Option {
	return func(c *Config) {
		if size <= 0 {
			size = core.DefaultPlanCacheSize
		}
		c.PlanCacheSize = size
	}
}

// WithCallScheduler is a no-op: every client runs the call scheduler.
//
// Deprecated: drop the option; single-flight is always on, and
// WithCoalesceWindow sets the merge window.
func WithCallScheduler() Option {
	return func(*Config) {}
}

// WithCoalesceWindow lets the call scheduler park sub-transaction-size
// fetches up to d while another open query may bring company, merging
// adjacent cross-query remainder boxes into one call when ceil pricing
// makes the union no more expensive than the parts. A lone query never
// waits. d <= 0 keeps the default: no window, fetches dispatch
// immediately (and concurrent identical fetches still single-flight).
func WithCoalesceWindow(d time.Duration) Option {
	return func(c *Config) {
		if d > 0 {
			c.CoalesceWindow = d
		}
	}
}
