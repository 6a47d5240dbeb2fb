package federation

import (
	"context"
	"testing"
)

func TestRetryBudgetSpendAndGrant(t *testing.T) {
	b := NewRetryBudget(2)
	if !b.Spend(1) || !b.Spend(1) {
		t.Fatalf("base credit of 2 should admit two unit spends")
	}
	if b.Spend(1) {
		t.Fatalf("third spend must be denied on an empty budget")
	}
	b.Grant(grantPerCall)
	b.Grant(grantPerCall)
	if !b.Spend(1) {
		t.Fatalf("two call grants (2 x %v) should fund one more attempt", grantPerCall)
	}
	credit, granted, spent, denied := b.Stats()
	if credit != 0 || granted != 1 || spent != 3 || denied != 1 {
		t.Fatalf("stats = credit %v granted %v spent %d denied %d, want 0 1 3 1",
			credit, granted, spent, denied)
	}
}

func TestRetryBudgetNegativeBaseClamped(t *testing.T) {
	b := NewRetryBudget(-5)
	if b.Spend(1) {
		t.Fatalf("negative base must clamp to zero credit, not go further negative")
	}
}

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *RetryBudget
	for i := 0; i < 100; i++ {
		if !b.Spend(1) {
			t.Fatalf("nil budget must admit every spend")
		}
	}
	b.Grant(1) // must not panic
	if c, g, s, d := b.Stats(); c != 0 || g != 0 || s != 0 || d != 0 {
		t.Fatalf("nil budget stats must be zero, got %v %v %v %v", c, g, s, d)
	}
}

func TestContextPlumbing(t *testing.T) {
	if BudgetFrom(context.Background()) != nil {
		t.Fatalf("bare context must carry no budget")
	}
	if !spend(context.Background()) {
		t.Fatalf("budget-free context must admit every spend")
	}
	b := NewRetryBudget(1)
	ctx := WithBudget(context.Background(), b)
	if BudgetFrom(ctx) != b {
		t.Fatalf("BudgetFrom must return the attached budget")
	}
	BudgetFrom(ctx).Grant(1)
	if !spend(ctx) || !spend(ctx) {
		t.Fatalf("1 base + 1 grant should admit two spends")
	}
	if spend(ctx) {
		t.Fatalf("empty budget must deny through the context helper too")
	}
}

func TestWithBudgetNilIsIdentity(t *testing.T) {
	ctx := context.Background()
	if got := WithBudget(ctx, nil); got != ctx {
		t.Fatalf("attaching a nil budget must not allocate a child context")
	}
}

func TestRetryBudgetConcurrent(t *testing.T) {
	b := NewRetryBudget(0)
	const workers = 16
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func() {
			admitted := 0
			for i := 0; i < 100; i++ {
				b.Grant(grantPerCall)
				if b.Spend(1) {
					admitted++
				}
			}
			done <- admitted
		}()
	}
	total := 0
	for w := 0; w < workers; w++ {
		total += <-done
	}
	// 16 workers × 100 grants of 0.5 = 800 tokens; spends are 1 each, so at
	// most 800 admissions regardless of interleaving.
	if total > workers*100/2 {
		t.Fatalf("admitted %d spends from %d tokens of credit", total, workers*100/2)
	}
}
