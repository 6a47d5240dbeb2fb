package core

import (
	"testing"
	"time"
)

// TestGreedyAcceptableBoundary pins the acceptance inequality: the greedy
// plan passes exactly when its estimate is within margin of the lower bound.
func TestGreedyAcceptableBoundary(t *testing.T) {
	cases := []struct {
		greedy, bound int64
		margin        float64
		want          bool
	}{
		{100, 100, 0.05, true},
		{105, 100, 0.05, true},  // exactly on the margin
		{106, 100, 0.05, false}, // one over
		{0, 0, 0.05, true},      // free plans always pass
		{1, 0, 0.05, false},     // but nothing beats free
		{100, 100, 0.0, true},
		{120, 100, 0.25, true},
	}
	for _, tc := range cases {
		if got := greedyAcceptable(tc.greedy, tc.bound, tc.margin); got != tc.want {
			t.Errorf("greedyAcceptable(%d, %d, %v) = %v, want %v",
				tc.greedy, tc.bound, tc.margin, got, tc.want)
		}
	}
}

// TestGreedyPlanWithinMarginOfDP: on join queries the greedy fast path must
// either produce a plan whose estimate stays within the configured margin of
// the DP optimum, or fall back to DP — in both cases the chosen plan's
// estimate is bounded by (1+margin) times the DP estimate.
func TestGreedyPlanWithinMarginOfDP(t *testing.T) {
	r := numTable("R", 2000, "a", "b")
	s := numTable("S", 800, "a", "c")
	u := numTable("U", 300, "c", "d")
	f := newFixture(t, r, s, u)
	queries := []string{
		"SELECT * FROM R WHERE a >= 10 AND a <= 60",
		"SELECT * FROM R, S WHERE R.a = S.a AND R.b >= 10 AND R.b <= 40",
		"SELECT * FROM R, S, U WHERE R.a = S.a AND S.c = U.c AND U.d >= 5 AND U.d <= 25",
	}
	for _, sql := range queries {
		dp := f.optimize(t, sql, Options{})

		b := f.bind(t, sql)
		o := Optimizer{Catalog: f.cat, Store: f.store, Stats: f.st, GreedyMargin: DefaultGreedyMargin}
		plan, err := o.Optimize(b)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if plan.Planner != PlannerGreedy && plan.Planner != PlannerDP {
			t.Errorf("%s: planner %q", sql, plan.Planner)
		}
		limit := int64(float64(dp.EstTrans) * (1 + DefaultGreedyMargin))
		if plan.EstTrans > limit {
			t.Errorf("%s: greedy-mode estimate %d exceeds DP %d by more than the margin",
				sql, plan.EstTrans, dp.EstTrans)
		}
		// The fast path's value is doing far less search work than DP.
		if plan.Planner == PlannerGreedy && plan.Counters.PlansEvaluated >= dp.Counters.PlansEvaluated && len(b.Rels) > 1 {
			t.Errorf("%s: greedy evaluated %d plans, DP %d — no saving",
				sql, plan.Counters.PlansEvaluated, dp.Counters.PlansEvaluated)
		}
	}
}

// TestGreedySkipsCoveredRelationsFirst: greedy keeps Theorem 2's invariant —
// zero-price covered relations lead the plan.
func TestGreedyCoveredRelationLeads(t *testing.T) {
	r := numTable("R", 1000, "a", "b")
	s := numTable("S", 1000, "c", "d")
	f := newFixture(t, r, s)
	if _, err := f.store.Record(r, r.FullBox(), nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	b := f.bind(t, "SELECT * FROM R, S WHERE R.a = S.c")
	o := Optimizer{Catalog: f.cat, Store: f.store, Stats: f.st, GreedyMargin: DefaultGreedyMargin}
	plan, err := o.Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Rel != 0 || plan.Steps[0].Kind != LocalScan {
		t.Errorf("covered relation must lead: %+v (planner %s)", plan.Steps, plan.Planner)
	}
}

// TestGreedyDisabledUnderBushySearch: the ablation that enumerates bushy
// plans bypasses the fast path entirely.
func TestGreedyDisabledUnderBushySearch(t *testing.T) {
	f := newFixture(t, numTable("R", 1000, "a"), numTable("S", 1000, "a"))
	b := f.bind(t, "SELECT * FROM R, S WHERE R.a = S.a")
	o := Optimizer{Catalog: f.cat, Store: f.store, Stats: f.st,
		GreedyMargin: DefaultGreedyMargin, Options: Options{DisableTheorems: true}}
	plan, err := o.Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Planner == PlannerGreedy {
		t.Errorf("bushy ablation must not take the greedy path")
	}
}
