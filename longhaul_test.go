package payless

import (
	"context"
	"math"
	"testing"
	"time"

	"payless/internal/chaos"
	"payless/internal/workload"
)

// TestLongHaulWorkload soaks the full stack with a mixed Table 1 workload
// and checks system invariants after every query:
//   - the seller meter equals the sum of buyer reports (billing integrity),
//   - per-table coverage is monotone non-decreasing (no eviction, §3),
//   - the cumulative spend stays at or below the Download All cost for the
//     tables actually touched plus a small rounding overhead.
func TestLongHaulWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("long haul")
	}
	client, m, w := testSetup(t, nil)
	queries := workload.Mix(w.Templates(), 8, 2030) // 40 mixed queries

	prevCoverage := map[string]int{}
	var reported int64
	for i, sql := range queries {
		res, err := client.Query(sql)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, sql, err)
		}
		reported += res.Report.Transactions

		meter, _ := m.MeterOf("acct")
		if meter.Transactions != reported {
			t.Fatalf("after query %d: meter %d != reports %d", i, meter.Transactions, reported)
		}
		for _, tc := range client.Coverage() {
			if tc.StoredRows < prevCoverage[tc.Table] {
				t.Fatalf("after query %d: coverage of %s shrank (%d -> %d)",
					i, tc.Table, prevCoverage[tc.Table], tc.StoredRows)
			}
			prevCoverage[tc.Table] = tc.StoredRows
		}
	}

	// Spend bound: with SQR, total spend cannot exceed the price of the
	// rows actually owned plus one transaction of ceil-rounding per call.
	owned := 0
	for _, tc := range client.Coverage() {
		owned += tc.StoredRows
	}
	calls := client.TotalSpend().Calls
	bound := int64(math.Ceil(float64(owned)/100)) + calls
	if reported > bound {
		t.Errorf("spend %d exceeds owned-rows bound %d (owned=%d calls=%d)",
			reported, bound, owned, calls)
	}
	if owned == 0 || reported == 0 {
		t.Error("long haul should actually buy data")
	}
}

// TestLongHaulChaosWorkload is the overload-hardened soak: the same mixed
// Table 1 workload through a market that randomly rejects, delays, and
// drops calls on a seeded schedule, with per-query deadlines and retry
// budgets active. Queries are allowed to FAIL under chaos — the invariants
// are about the books and the store, and they are exact after every query:
//   - the seller meter equals successful-query reports plus the
//     failed-query spend the client metrics own up to (a dropped call
//     bills, and the accounting must say so),
//   - per-table coverage is monotone non-decreasing — a failed query never
//     un-buys data,
//   - chaos actually fired, and some queries still succeeded through it.
func TestLongHaulChaosWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("long haul")
	}
	sched := chaos.NewSchedule(99).
		Rate(chaos.Reject, 0.10).
		Rate(chaos.Drop, 0.05).
		Rate(chaos.Latency, 0.10).
		WithLatency(2 * time.Millisecond)
	client, m, w := testSetup(t, func(cfg *Config) {
		cfg.Caller = chaos.Caller{Inner: cfg.Caller, Schedule: sched}
	})
	queries := workload.Mix(w.Templates(), 8, 2031) // 40 mixed queries

	prevCoverage := map[string]int{}
	var reported, succeeded, failed int64
	for i, sql := range queries {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := client.QueryContext(ctx, sql)
		cancel()
		if err != nil {
			failed++
		} else {
			succeeded++
			reported += res.Report.Transactions
		}
		// Billing integrity holds mid-chaos: whatever a failed query spent
		// before dying is in the failed-spend metric, nowhere else.
		meter, _ := m.MeterOf("acct")
		accounted := reported + client.Metrics().FailedQuerySpendTransactions
		if meter.Transactions != accounted {
			t.Fatalf("after query %d: meter %d != reports %d + failed-spend %d",
				i, meter.Transactions, reported, accounted-reported)
		}
		for _, tc := range client.Coverage() {
			if tc.StoredRows < prevCoverage[tc.Table] {
				t.Fatalf("after query %d: coverage of %s shrank (%d -> %d)",
					i, tc.Table, prevCoverage[tc.Table], tc.StoredRows)
			}
			prevCoverage[tc.Table] = tc.StoredRows
		}
	}
	if sched.TotalInjected() == 0 {
		t.Fatal("chaos schedule never fired; the soak tested nothing")
	}
	if succeeded == 0 {
		t.Fatalf("all %d queries failed under chaos", failed)
	}
	t.Logf("chaos soak: %d ok, %d failed, injected %v, failed-spend %d",
		succeeded, failed, sched.Injected(), client.Metrics().FailedQuerySpendTransactions)
}
