package tenant

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func testRegistry(t *testing.T, global int64, cfgs ...Config) *Registry {
	t.Helper()
	r, err := NewRegistry(global, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegistryAuthenticate(t *testing.T) {
	r := testRegistry(t, 0,
		Config{Name: "alice", Key: "key-a"},
		Config{Name: "bob", Key: "key-b"},
	)
	a, err := r.Authenticate("key-a")
	if err != nil || a.Name() != "alice" {
		t.Fatalf("key-a -> %v, %v", a, err)
	}
	if _, err := r.Authenticate("nope"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad key: %v, want ErrBadKey", err)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	if _, err := NewRegistry(0, Config{Name: "a", Key: "k"}, Config{Name: "a", Key: "k2"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewRegistry(0, Config{Name: "a", Key: "k"}, Config{Name: "b", Key: "k"}); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if _, err := NewRegistry(0, Config{Name: "", Key: "k"}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestTenantBudgetReservation(t *testing.T) {
	r := testRegistry(t, 0, Config{Name: "a", Key: "k", Budget: 10})
	ten, _ := r.Lookup("a")
	ctx := WithTenant(context.Background(), ten)

	if err := r.Reserve(ctx, 6); err != nil {
		t.Fatal(err)
	}
	// 6 reserved: another 6 must bounce even though nothing is spent yet.
	if err := r.Reserve(ctx, 6); !errors.Is(err, ErrTenantOverBudget) {
		t.Fatalf("over-reservation: %v, want ErrTenantOverBudget", err)
	}
	// Settle to an actual of 4: 6 headroom returns.
	r.Settle(ctx, 6, 4)
	if got := ten.Spend(); got != 4 {
		t.Fatalf("spend after settle: %d, want 4", got)
	}
	if err := r.Reserve(ctx, 6); err != nil {
		t.Fatalf("reserve after settle: %v", err)
	}
	r.Settle(ctx, 6, 6)
	if err := r.Reserve(ctx, 1); !errors.Is(err, ErrTenantOverBudget) {
		t.Fatalf("budget exhausted but admitted: %v", err)
	}
}

func TestTenantBudgetRace(t *testing.T) {
	// 16 goroutines race a budget admitting exactly 4 of their reservations:
	// reservation-based admission must never overshoot.
	r := testRegistry(t, 0, Config{Name: "a", Key: "k", Budget: 4})
	ten, _ := r.Lookup("a")
	ctx := WithTenant(context.Background(), ten)
	var wg sync.WaitGroup
	admitted := make([]bool, 16)
	for i := range admitted {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if r.Reserve(ctx, 1) == nil {
				admitted[i] = true
			}
		}(i)
	}
	wg.Wait()
	n := 0
	for _, ok := range admitted {
		if ok {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("budget of 4 admitted %d unit reservations", n)
	}
}

func TestGlobalBudgetReleasesTenantReservation(t *testing.T) {
	r := testRegistry(t, 5,
		Config{Name: "a", Key: "ka", Budget: 100},
		Config{Name: "b", Key: "kb", Budget: 100},
	)
	a, _ := r.Lookup("a")
	b, _ := r.Lookup("b")
	actx := WithTenant(context.Background(), a)
	bctx := WithTenant(context.Background(), b)

	if err := r.Reserve(actx, 4); err != nil {
		t.Fatal(err)
	}
	// Global has 1 headroom left: b's 2 bounces off the GLOBAL budget and
	// must leave no residue on b's own account.
	if err := r.Reserve(bctx, 2); !errors.Is(err, ErrGlobalOverBudget) {
		t.Fatalf("global overshoot admitted: %v", err)
	}
	b.mu.Lock()
	res := b.reserved
	b.mu.Unlock()
	if res != 0 {
		t.Fatalf("failed global admission left %d reserved on the tenant", res)
	}
	r.Settle(actx, 4, 4)
	if err := r.Reserve(bctx, 1); err != nil {
		t.Fatalf("global headroom after settle: %v", err)
	}
}

// TestGlobalRejectionIsNotCountedAdmitted: a query the global budget
// refuses was never admitted, so it must not show in the tenant's admitted
// count — only in the global rejection count.
func TestGlobalRejectionIsNotCountedAdmitted(t *testing.T) {
	r := testRegistry(t, 5,
		Config{Name: "a", Key: "ka"},
		Config{Name: "b", Key: "kb"},
	)
	a, _ := r.Lookup("a")
	b, _ := r.Lookup("b")
	if err := r.Reserve(WithTenant(context.Background(), a), 4); err != nil {
		t.Fatal(err)
	}
	if err := r.Reserve(WithTenant(context.Background(), b), 2); !errors.Is(err, ErrGlobalOverBudget) {
		t.Fatalf("global overshoot admitted: %v", err)
	}
	var sb strings.Builder
	r.WriteMetrics(&sb, "paylessd")
	out := sb.String()
	for _, want := range []string{
		`paylessd_tenant_queries_total{tenant="a"} 1`,
		`paylessd_tenant_queries_total{tenant="b"} 0`,
		`paylessd_global_rejected_budget_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestReserveWithoutTenantFails(t *testing.T) {
	r := testRegistry(t, 0, Config{Name: "a", Key: "k"})
	if err := r.Reserve(context.Background(), 1); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("tenantless reserve: %v, want ErrNoTenant", err)
	}
}

func TestTenantRateLimit(t *testing.T) {
	r := testRegistry(t, 0, Config{Name: "a", Key: "k", RatePerSec: 1, Burst: 2})
	ten, _ := r.Lookup("a")
	now := time.Unix(1700000000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := ten.Allow(now); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	ok, retry := ten.Allow(now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry <= 0 || retry > time.Second+time.Millisecond {
		t.Fatalf("retry-after %v, want (0, 1s]", retry)
	}
	// One token accrues per second.
	if ok, _ := ten.Allow(now.Add(time.Second)); !ok {
		t.Fatal("refilled bucket refused")
	}
	if ok, _ := ten.Allow(now.Add(time.Second)); ok {
		t.Fatal("second token admitted after one-second refill")
	}
	// Unlimited tenants always pass.
	free := testRegistry(t, 0, Config{Name: "f", Key: "kf"})
	ft, _ := free.Lookup("f")
	for i := 0; i < 100; i++ {
		if ok, _ := ft.Allow(now); !ok {
			t.Fatal("unlimited tenant throttled")
		}
	}
}

func TestWriteMetricsAttributesSpendPerTenant(t *testing.T) {
	r := testRegistry(t, 0,
		Config{Name: "alice", Key: "ka"},
		Config{Name: "bob", Key: "kb"},
	)
	a, _ := r.Lookup("alice")
	ctxA := WithTenant(context.Background(), a)
	if err := r.Reserve(ctxA, 7); err != nil {
		t.Fatal(err)
	}
	r.Settle(ctxA, 7, 7)

	var sb strings.Builder
	r.WriteMetrics(&sb, "paylessd")
	out := sb.String()
	for _, want := range []string{
		`paylessd_tenant_spend_total{tenant="alice"} 7`,
		`paylessd_tenant_spend_total{tenant="bob"} 0`,
		`paylessd_global_spend_total 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	// Deterministic order: alice renders before bob.
	if strings.Index(out, `tenant="alice"`) > strings.Index(out, `tenant="bob"`) {
		t.Fatalf("tenants not in sorted order:\n%s", out)
	}
}

func TestApplyHotReload(t *testing.T) {
	r := testRegistry(t, 100,
		Config{Name: "alice", Key: "key-a", Budget: 10},
		Config{Name: "bob", Key: "key-b"},
	)
	a, _ := r.Authenticate("key-a")
	ctx := WithTenant(context.Background(), a)
	if err := r.Reserve(ctx, 2); err != nil {
		t.Fatal(err)
	}
	r.Settle(ctx, 2, 2)

	// Reload: alice rotates key + budget, bob disappears, carol appears.
	err := r.Apply(50, []Config{
		{Name: "alice", Key: "key-a9", Budget: 20},
		{Name: "carol", Key: "key-c", RatePerSec: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Authenticate("key-a9")
	if err != nil || a2 != a {
		t.Fatalf("alice must survive the reload as the same live tenant: %v %v", a2, err)
	}
	if a2.Spend() != 2 {
		t.Fatalf("alice's spend lost across reload: %d", a2.Spend())
	}
	if _, err := r.Authenticate("key-b"); !errors.Is(err, ErrBadKey) {
		t.Fatal("bob must be gone after the reload")
	}
	if _, err := r.Authenticate("key-c"); err != nil {
		t.Fatalf("carol must exist after the reload: %v", err)
	}
	if _, ok := r.Lookup("bob"); ok {
		t.Fatal("bob must be gone from the name table after the reload")
	}
	if c, ok := r.Lookup("carol"); !ok || c.Name() != "carol" {
		t.Fatalf("carol must be in the name table after the reload: %v %v", c, ok)
	}
	if l, ok := r.Lookup("alice"); !ok || l != a {
		t.Fatal("alice must be in the name table as the same live tenant")
	}

	// An invalid reload leaves everything untouched.
	if err := r.Apply(50, []Config{{Name: "x", Key: ""}}); err == nil {
		t.Fatal("invalid reload accepted")
	}
	if _, err := r.Authenticate("key-a9"); err != nil {
		t.Fatal("failed reload must leave the table untouched")
	}
}

func TestWeightDefaultsToOne(t *testing.T) {
	r := testRegistry(t, 0, Config{Name: "alice", Key: "key-a"})
	a, _ := r.Authenticate("key-a")
	if a.Weight() != 1 {
		t.Fatalf("unset weight = %v, want 1", a.Weight())
	}
	if a.Deadline() != 0 {
		t.Fatalf("unset deadline = %v, want 0", a.Deadline())
	}
}
