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

// WithBudget caps spending; over-budget queries fail with ErrOverBudget
// before any call is made.
func WithBudget(b Budget) Option {
	return func(c *Config) { c.Budget = b }
}

// WithAdmitter installs an external admission hook consulted after the
// client's own Budget: multi-tenant front ends (cmd/paylessd)
// use it to bind per-tenant and global budgets onto one shared client. The
// admitter sees the query's context, so per-caller identity can ride on it.
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
// (StoreSyncPerCall, StoreSyncBatched, StoreSyncOff). batchEvery sets the
// batched cadence; 0 keeps the default (8).
func WithStoreSync(policy StoreSyncPolicy, batchEvery int) Option {
	return func(c *Config) {
		c.StoreSync = policy
		c.StoreBatchEvery = batchEvery
	}
}

// WithCheckpointEvery sets how many recorded calls accumulate in the WAL
// before an automatic snapshot checkpoint; negative disables automatic
// checkpoints.
func WithCheckpointEvery(records int) Option {
	return func(c *Config) { c.CheckpointEvery = records }
}

// WithBreaker enables circuit breaking per endpoint×dataset: after
// threshold consecutive call failures against one dataset at one endpoint,
// calls to it there short-circuit with ErrCircuitOpen until cooldown
// elapses and a probe call succeeds. cooldown 0 defaults to 5s.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Config) {
		c.BreakerThreshold = threshold
		c.BreakerCooldown = cooldown
	}
}

// WithFederation federates the client across N mirrors of the same logical
// market: calls route to the endpoint minimizing a price+latency+health
// cost model and fail over to the next-cheapest healthy endpoint on error.
// Endpoints need pre-built Callers under Open; OpenFederated builds HTTP
// connectors from BaseURL.
func WithFederation(endpoints ...MarketEndpoint) Option {
	return func(c *Config) { c.FederationEndpoints = endpoints }
}

// WithHedgeAfter, on a federated client, races the next-ranked endpoint
// when the chosen one has not answered within d, cancelling the loser; the
// shared idempotent CallID keeps any one endpoint from billing the call
// twice. d <= 0 disables hedging.
func WithHedgeAfter(d time.Duration) Option {
	return func(c *Config) {
		if d > 0 {
			c.HedgeAfter = d
		}
	}
}

// WithStatistics selects the updatable statistic implementation.
func WithStatistics(kind StatsKind) Option {
	return func(c *Config) { c.Statistics = kind }
}

// WithDefaultTuplesPerTransaction sets the page size t for datasets that
// don't declare their own.
func WithDefaultTuplesPerTransaction(t int) Option {
	return func(c *Config) { c.DefaultTuplesPerTransaction = t }
}

// WithoutSQR turns off semantic query rewriting (the paper's
// "PayLess w/o SQR" ablation).
func WithoutSQR() Option {
	return func(c *Config) { c.DisableSQR = true }
}

// WithMinimizeCalls optimises for the number of RESTful calls instead of
// transactions ("Minimizing Calls" in the paper's evaluation).
func WithMinimizeCalls() Option {
	return func(c *Config) { c.MinimizeCalls = true }
}

// WithoutTheorems turns off the search-space reductions of Theorems 1–3
// (the "Disable All" ablation).
func WithoutTheorems() Option {
	return func(c *Config) { c.DisableTheorems = true }
}

// WithoutBoxPruning turns off Algorithm 1's remainder-box pruning rules.
func WithoutBoxPruning() Option {
	return func(c *Config) { c.DisableBoxPruning = true }
}

// WithPlanCache enables the parameterized plan-template cache: optimized
// plans are cached by normalized query shape and repeated shapes skip
// optimization entirely, with invalidation on semantic-store and statistics
// changes. size is the LRU capacity in templates; size <= 0 uses the
// default (1024).
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

// WithGreedyPlanner enables the greedy join-ordering fast path. margin is
// the accepted relative divergence between the greedy plan's estimated
// spend and a lower bound on the DP optimum before the optimizer falls back
// to the full dynamic program; margin <= 0 uses the default (0.05).
func WithGreedyPlanner(margin float64) Option {
	return func(c *Config) {
		c.GreedyPlanner = true
		c.GreedyMargin = margin
	}
}
