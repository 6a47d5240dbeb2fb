package payless

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"payless/internal/chaos"
	"payless/internal/connector"
	"payless/internal/federation"
)

// TestSchedulerMidMergeFaultNeverDoubleBills drives a cross-query merge
// through the full HTTP stack while chaos faults the merged wire call. The
// merged call runs under one idempotent CallID, so however the fault lands
// — post-billing (Drop/Truncate: the market billed, the response died) or
// pre-billing (ServerError) — the federation's retry must replay, not
// repurchase: the seller meter ends at exactly one bill for the union box,
// and both requesters still get their rows. A third query held open makes
// both fetches park, however their queries interleave.
func TestSchedulerMidMergeFaultNeverDoubleBills(t *testing.T) {
	kinds := []chaos.Kind{chaos.Drop, chaos.Truncate, chaos.ServerError}
	for _, kind := range kinds {
		kind := kind
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			m := stressMarket(t, "acct")
			// Fault the first data call — which the window makes the merged
			// call — once.
			s := chaos.NewSchedule(1).Target(func(string) bool { return true }, kind, 1)
			srv := httptest.NewServer(chaos.Handler(m.Handler(), s))
			defer srv.Close()

			client, err := Open(Config{
				Tables:               m.ExportCatalog(),
				Caller:               connector.New(srv.URL, "acct"),
				TuplesPerTransaction: map[string]int{"DS": 10},
				FetchConcurrency:     4,
				retry:                federation.Retry{Attempts: 9, Base: time.Millisecond, Max: 5 * time.Millisecond},
			}, WithCoalesceWindow(150*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			_, closeOther := client.sched.Open(context.Background())
			defer closeOther()

			var wg sync.WaitGroup
			rows := make([]int, 2)
			errs := make([]error, 2)
			queries := []string{
				"SELECT v FROM T WHERE a >= 1 AND a <= 5",
				"SELECT v FROM T WHERE a >= 6 AND a <= 9",
			}
			for i, sql := range queries {
				wg.Add(1)
				go func(i int, sql string) {
					defer wg.Done()
					res, err := client.Query(sql)
					errs[i] = err
					if err == nil {
						rows[i] = len(res.Rows)
					}
				}(i, sql)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
			}
			if rows[0] != 5 || rows[1] != 4 {
				t.Fatalf("split rows: %d / %d", rows[0], rows[1])
			}

			snap := client.Metrics()
			if snap.SchedMergedCalls != 1 {
				t.Fatalf("expected one merged call, got %d (the window missed)", snap.SchedMergedCalls)
			}
			meter, _ := m.MeterOf("acct")
			// One union box of 9 rows at t=10: exactly one transaction, no
			// matter how the fault interleaved with the merge.
			if meter.Transactions != 1 {
				t.Fatalf("mid-merge fault double-billed: %+v", meter)
			}

			// The merged box was recorded once: re-reading the union is free.
			before := meter
			if _, err := client.Query("SELECT v FROM T WHERE a >= 1 AND a <= 9"); err != nil {
				t.Fatal(err)
			}
			after, _ := m.MeterOf("acct")
			if after != before {
				t.Fatalf("merged box not recorded: %+v -> %+v", before, after)
			}
		})
	}
}
