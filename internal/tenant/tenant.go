// Package tenant is the multi-tenant daemon's account layer: static API-key
// authentication, per-tenant and global spending budgets enforced by
// reservation, per-tenant rate limits, and per-tenant billing attribution.
//
// The economics follow the shared semantic store's first-payer policy: the
// tenant whose query triggers a remainder fetch pays for it; every later
// tenant reads the purchased rows free. A Registry implements the payless
// Admitter hook, so one shared Client serves every tenant while budgets and
// spend stay per-tenant — the tenant rides the query's context.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"payless/internal/obs"
)

// Admission errors. The daemon maps ErrRateLimited to 429 and the budget
// errors to 402; ErrNoTenant/ErrBadKey to 401.
var (
	// ErrBadKey means the presented API key matches no registered tenant.
	ErrBadKey = errors.New("tenant: unknown API key")
	// ErrNoTenant means a query reached the admitter without a tenant on its
	// context — a daemon wiring bug, never a user error.
	ErrNoTenant = errors.New("tenant: no tenant on query context")
	// ErrTenantOverBudget means the estimate exceeds the tenant's remaining
	// budget (spent + reserved headroom).
	ErrTenantOverBudget = errors.New("tenant: estimated cost exceeds tenant budget")
	// ErrGlobalOverBudget means the estimate exceeds the daemon-wide budget.
	ErrGlobalOverBudget = errors.New("tenant: estimated cost exceeds global budget")
	// ErrRateLimited means the tenant's token bucket is empty.
	ErrRateLimited = errors.New("tenant: rate limit exceeded")
)

// Config declares one tenant.
type Config struct {
	// Name labels the tenant in metrics and logs; required, unique.
	Name string
	// Key is the tenant's static API key; required, unique.
	Key string
	// Budget caps the tenant's lifetime spend in transactions; 0 unlimited.
	Budget int64
	// RatePerSec caps the tenant's sustained query admission rate; 0
	// unlimited. Burst is the token-bucket depth (0 means a depth of
	// max(1, ceil(RatePerSec))).
	RatePerSec float64
	Burst      int
	// Weight scales the tenant's shed tolerance under overload: a tenant
	// with Weight 2 waits twice as long for an execution slot before being
	// shed as one with Weight 1. <= 0 means 1 (equal treatment).
	Weight float64
	// Deadline is the tenant's default per-query deadline, used when a
	// request neither carries an X-Deadline-Ms header nor relies on the
	// daemon-wide default. 0 falls back to the daemon default.
	Deadline time.Duration
}

// account is one spending cap enforced by reservation: a query's estimate
// is held from admission to settlement, so concurrent queries can never
// jointly overshoot the limit. It has no lock of its own; callers hold the
// lock that guards it.
type account struct {
	limit    int64 // cap in transactions; 0 unlimited
	spent    int64 // transactions actually billed
	reserved int64 // estimates of admitted, unsettled queries
	rejected int64 // reservations refused over the limit
}

// reserve holds est against the limit. Check and hold are one step under
// the caller's lock, so two queries cannot both be admitted against the
// same headroom. A refusal is counted and says what headroom was missing.
func (a *account) reserve(est int64) error {
	if a.limit > 0 && a.spent+a.reserved+est > a.limit {
		a.rejected++
		return fmt.Errorf("estimated %d on top of %d spent and %d reserved, budget %d",
			est, a.spent, a.reserved, a.limit)
	}
	a.reserved += est
	return nil
}

// settle releases a reservation and books the actual bill in one step, so
// the headroom freed by the estimate and the headroom taken by the bill
// move together.
func (a *account) settle(est, actual int64) {
	a.reserved -= est
	a.spent += actual
}

// Tenant is one authenticated account's live state. All fields are guarded
// by mu; methods are safe for concurrent use.
type Tenant struct {
	name string

	mu       sync.Mutex
	account  // the tenant budget and its spend
	weight   float64
	deadline time.Duration
	queries  int64 // queries admitted past the tenant and global budgets

	// Token bucket. rate<=0 disables limiting.
	rate        float64
	burst       float64
	tokens      float64
	last        time.Time
	rateLimited int64
}

// Name returns the tenant's metric label.
func (t *Tenant) Name() string { return t.name }

// Weight returns the tenant's shed-tolerance multiplier (>= a minimum of a
// neutral 1 when unset).
func (t *Tenant) Weight() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.weight <= 0 {
		return 1
	}
	return t.weight
}

// Deadline returns the tenant's default per-query deadline; 0 defers to the
// daemon default.
func (t *Tenant) Deadline() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deadline
}

// Spend returns the transactions actually billed to this tenant so far.
func (t *Tenant) Spend() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spent
}

// Allow consumes one rate-limit token, reporting how long the caller should
// wait before retrying when the bucket is empty. Unlimited tenants always
// pass.
func (t *Tenant) Allow(now time.Time) (ok bool, retryAfter time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rate <= 0 {
		return true, 0
	}
	if !t.last.IsZero() {
		t.tokens += now.Sub(t.last).Seconds() * t.rate
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
	}
	t.last = now
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	t.rateLimited++
	wait := time.Duration((1 - t.tokens) / t.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// Registry is the daemon's tenant table plus the global budget. It
// implements the payless Admitter interface: the tenant is carried on the
// query context (WithTenant/From), so one shared client serves every tenant.
type Registry struct {
	// tabmu guards the tenant table (byKey/byName). It is separate from mu
	// (the global-budget lock) so admission hot paths and a reload never
	// contend on one lock; reads vastly outnumber writes, hence RW.
	tabmu  sync.RWMutex
	byKey  map[string]*Tenant
	byName map[string]*Tenant

	mu     sync.Mutex
	global account
}

// newTenant builds a tenant's live state from its declaration, with a full
// token bucket.
func newTenant(c Config) *Tenant {
	t := &Tenant{name: c.Name}
	t.reconfigure(c)
	t.tokens = t.burst
	return t
}

// reconfigure updates a live tenant's declared knobs in place, preserving
// its spend, reservations and counters — a hot-reloaded tenant does not get
// a fresh budget.
func (t *Tenant) reconfigure(c Config) {
	burst := float64(c.Burst)
	if burst <= 0 && c.RatePerSec > 0 {
		burst = c.RatePerSec
		if burst < 1 {
			burst = 1
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.limit = c.Budget
	t.weight = c.Weight
	t.deadline = c.Deadline
	t.rate = c.RatePerSec
	t.burst = burst
	if t.tokens > burst {
		t.tokens = burst
	}
}

// validate checks one declaration against the other declarations in a set.
func validate(cfgs []Config) error {
	names := make(map[string]bool, len(cfgs))
	keys := make(map[string]bool, len(cfgs))
	for _, c := range cfgs {
		if c.Name == "" || c.Key == "" {
			return fmt.Errorf("tenant: name and key are required (name %q)", c.Name)
		}
		if names[c.Name] {
			return fmt.Errorf("tenant: duplicate name %q", c.Name)
		}
		if keys[c.Key] {
			return fmt.Errorf("tenant: duplicate key for %q", c.Name)
		}
		names[c.Name] = true
		keys[c.Key] = true
	}
	return nil
}

// NewRegistry builds a registry from tenant declarations. globalBudget caps
// the daemon's combined spend in transactions (0 unlimited).
func NewRegistry(globalBudget int64, tenants ...Config) (*Registry, error) {
	r := &Registry{}
	if err := r.Apply(globalBudget, tenants); err != nil {
		return nil, err
	}
	return r, nil
}

// Authenticate resolves an API key to its tenant.
func (r *Registry) Authenticate(key string) (*Tenant, error) {
	r.tabmu.RLock()
	t, ok := r.byKey[key]
	r.tabmu.RUnlock()
	if ok {
		return t, nil
	}
	return nil, ErrBadKey
}

// Lookup resolves a tenant by name (tests and introspection).
func (r *Registry) Lookup(name string) (*Tenant, bool) {
	r.tabmu.RLock()
	defer r.tabmu.RUnlock()
	t, ok := r.byName[name]
	return t, ok
}

// Apply replaces the whole tenant table and the global budget in one swap.
// It is the table's one writer: NewRegistry builds through it and
// paylessd's SIGHUP reload runs it. Tenants matched by name carry their live
// state (spend, reservations, counters) across the swap; tenants absent
// from the new set are removed; new names start fresh. The set is validated
// first, so a bad reload leaves the registry untouched.
func (r *Registry) Apply(globalBudget int64, cfgs []Config) error {
	if err := validate(cfgs); err != nil {
		return err
	}
	r.tabmu.Lock()
	byKey := make(map[string]*Tenant, len(cfgs))
	byName := make(map[string]*Tenant, len(cfgs))
	for _, c := range cfgs {
		t, exists := r.byName[c.Name]
		if exists {
			t.reconfigure(c)
		} else {
			t = newTenant(c)
		}
		byKey[c.Key] = t
		byName[c.Name] = t
	}
	r.byKey, r.byName = byKey, byName
	r.tabmu.Unlock()
	r.mu.Lock()
	r.global.limit = globalBudget
	r.mu.Unlock()
	return nil
}

// ctxKey keys the tenant on a query context.
type ctxKey struct{}

// WithTenant attaches a tenant to a query context.
func WithTenant(ctx context.Context, t *Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// From extracts the tenant a query runs as.
func From(ctx context.Context) (*Tenant, bool) {
	t, ok := ctx.Value(ctxKey{}).(*Tenant)
	return t, ok
}

// Reserve implements the payless Admitter hook: the estimate is reserved
// against the querying tenant's budget first, then the global budget. The
// tenant's lock is held across both, so a global rejection releases the
// tenant reservation before anyone can see it, and a query is counted
// admitted only once both accounts hold it. Lock order is tenant, then
// global.
func (r *Registry) Reserve(ctx context.Context, est int64) error {
	t, ok := From(ctx)
	if !ok {
		return ErrNoTenant
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.reserve(est); err != nil {
		return fmt.Errorf("%w: tenant %s %v", ErrTenantOverBudget, t.name, err)
	}
	r.mu.Lock()
	err := r.global.reserve(est)
	r.mu.Unlock()
	if err != nil {
		t.settle(est, 0)
		return fmt.Errorf("%w: %v", ErrGlobalOverBudget, err)
	}
	t.queries++
	return nil
}

// Settle implements the payless Admitter hook: the reservation is released
// and the actual bill booked on the tenant whose query spent it — the
// first-payer attribution the shared store's economics rest on.
func (r *Registry) Settle(ctx context.Context, est, actual int64) {
	t, ok := From(ctx)
	if !ok {
		return
	}
	t.mu.Lock()
	t.settle(est, actual)
	t.mu.Unlock()
	r.mu.Lock()
	r.global.settle(est, actual)
	r.mu.Unlock()
}

// GlobalSpend reports the transactions billed across all tenants.
func (r *Registry) GlobalSpend() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.global.spent
}

// tenantFamilies are the per-tenant families WriteMetrics renders, in
// order, each with the tenant counter it reads (under the tenant's lock).
var tenantFamilies = [...]struct {
	name, help string
	value      func(*Tenant) int64
}{
	{"tenant_spend_total", "Transactions billed to queries this tenant triggered (first-payer attribution).", func(t *Tenant) int64 { return t.spent }},
	{"tenant_reserved_transactions", "Estimated transactions held by this tenant's in-flight queries.", func(t *Tenant) int64 { return t.reserved }},
	{"tenant_queries_total", "Queries admitted past this tenant's and the global budget.", func(t *Tenant) int64 { return t.queries }},
	{"tenant_rejected_budget_total", "Queries rejected over the tenant budget.", func(t *Tenant) int64 { return t.rejected }},
	{"tenant_rate_limited_total", "Queries rejected by the tenant rate limit.", func(t *Tenant) int64 { return t.rateLimited }},
}

// WriteMetrics renders the per-tenant families in the Prometheus text
// exposition format under the given prefix: spend, reserved estimates,
// admitted queries, and budget/rate rejections, labeled by tenant, plus the
// global spend line. Tenants render in sorted name order so scrapes diff
// cleanly.
func (r *Registry) WriteMetrics(w io.Writer, prefix string) {
	type row struct {
		name string
		vals [len(tenantFamilies)]int64
	}
	r.tabmu.RLock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]row, 0, len(names))
	for _, name := range names {
		t := r.byName[name]
		t.mu.Lock()
		x := row{name: name}
		for i, fam := range tenantFamilies {
			x.vals[i] = fam.value(t)
		}
		rows = append(rows, x)
		t.mu.Unlock()
	}
	r.tabmu.RUnlock()
	for i, fam := range tenantFamilies {
		obs.WriteCounterHead(w, prefix, fam.name, fam.help)
		for _, x := range rows {
			obs.WriteLabeledCounter(w, prefix, fam.name, "tenant", x.name, x.vals[i])
		}
	}
	r.mu.Lock()
	spent, rejected := r.global.spent, r.global.rejected
	r.mu.Unlock()
	obs.WriteCounterHead(w, prefix, "global_spend_total", "Transactions billed across all tenants.")
	fmt.Fprintf(w, "%s_global_spend_total %d\n", prefix, spent)
	obs.WriteCounterHead(w, prefix, "global_rejected_budget_total", "Queries rejected over the global budget.")
	fmt.Fprintf(w, "%s_global_rejected_budget_total %d\n", prefix, rejected)
}
