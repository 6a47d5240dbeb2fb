package payless

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"payless/internal/chaos"
	"payless/internal/market"
)

// The federation chaos suite runs the chaos workload against three
// in-process mirrors of the same market and checks the tentpole's billing
// and availability invariants:
//
//  1. parity: at N=1 the federated client is bill- and row-identical to a
//     plain single-market client — federation is free when not needed;
//  2. availability: with one of three mirrors erroring or partitioned
//     mid-run, every query still completes with clean-run rows;
//  3. exactly-once billing: combined seller meters equal the clean-run
//     bill plus only the provable lost-call remainder — the transactions
//     a partitioned mirror billed for results that never arrived. Errors
//     that fail before billing add nothing.

// buildMirrors installs the chaos workload into n identical markets (same
// seed, same catalog, same prices) — n regions selling the same data.
func buildMirrors(t *testing.T, n int) []*market.Market {
	t.Helper()
	mirrors := make([]*market.Market, n)
	for i := range mirrors {
		mirrors[i], _ = buildChaosMarket(t)
	}
	return mirrors
}

// mirrorEndpoints wraps each mirror's in-process caller as a federation
// endpoint; wrap (if non-nil) interposes fault injection per mirror.
func mirrorEndpoints(mirrors []*market.Market, wrap func(i int, inner market.Caller) market.Caller) []MarketEndpoint {
	eps := make([]MarketEndpoint, len(mirrors))
	for i, m := range mirrors {
		var c market.Caller = market.AccountCaller{Market: m, Key: "acct"}
		if wrap != nil {
			c = wrap(i, c)
		}
		eps[i] = MarketEndpoint{
			Name:        fmt.Sprintf("mirror-%d", i),
			Caller:      c,
			PriceFactor: 1 + 0.1*float64(i), // mirror-0 is the preferred (cheapest) source
		}
	}
	return eps
}

// cleanBaseline runs the chaos workload against one fault-free market and
// returns the canonical rows and the ground-truth bill.
func cleanBaseline(t *testing.T) ([][]string, market.Meter) {
	t.Helper()
	m, w := buildChaosMarket(t)
	client, err := Open(Config{
		Tables:                      m.ExportCatalog(),
		Caller:                      market.AccountCaller{Market: m, Key: "acct"},
		DefaultTuplesPerTransaction: 100,
		FetchConcurrency:            8,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := chaosQueries(w)
	rows := make([][]string, len(queries))
	for i, q := range queries {
		res, err := client.Query(q)
		if err != nil {
			t.Fatalf("clean baseline query %d: %v", i, err)
		}
		rows[i] = sortedRows(res)
	}
	meter, _ := m.MeterOf("acct")
	if meter.Transactions == 0 {
		t.Fatal("clean baseline billed nothing; the invariants below would be vacuous")
	}
	return rows, meter
}

// openFederatedChaosClient opens a client federated over the given
// endpoints with per-endpoint×dataset breakers armed.
func openFederatedChaosClient(t *testing.T, mirrors []*market.Market, eps []MarketEndpoint, opts ...Option) *Client {
	t.Helper()
	client, err := Open(Config{
		Tables:                      mirrors[0].ExportCatalog(),
		FederationEndpoints:         eps,
		DefaultTuplesPerTransaction: 100,
		FetchConcurrency:            8,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func sumMeters(mirrors []*market.Market) (total market.Meter) {
	for _, m := range mirrors {
		meter, _ := m.MeterOf("acct")
		total.Calls += meter.Calls
		total.Transactions += meter.Transactions
		total.Price += meter.Price
	}
	return total
}

// TestFederationSingleEndpointParity is the acceptance gate's degenerate
// case: a federated client over exactly one endpoint must return the same
// rows and land the same bill as a plain client on that market.
func TestFederationSingleEndpointParity(t *testing.T) {
	smallPages(t, 40)
	cleanRows, cleanMeter := cleanBaseline(t)

	mirrors := buildMirrors(t, 1)
	client := openFederatedChaosClient(t, mirrors, mirrorEndpoints(mirrors, nil))
	_, w := buildChaosMarket(t)
	for i, q := range chaosQueries(w) {
		res, err := client.Query(q)
		if err != nil {
			t.Fatalf("federated N=1 query %d: %v", i, err)
		}
		if got := sortedRows(res); !sameRows(got, cleanRows[i]) {
			t.Errorf("query %d rows diverged from plain client: %d vs %d rows",
				i, len(got), len(cleanRows[i]))
		}
	}
	meter, _ := mirrors[0].MeterOf("acct")
	if meter.Transactions != cleanMeter.Transactions || meter.Calls != cleanMeter.Calls {
		t.Errorf("federated N=1 billed %d calls/%d transactions, plain client %d/%d",
			meter.Calls, meter.Transactions, cleanMeter.Calls, cleanMeter.Transactions)
	}
}

// TestFederationOpenFederatedHTTPParity is the same N=1 gate over the
// real HTTP stack: OpenFederated with one mirror — including its
// bootstrap registration against that mirror — must be bill- and
// row-identical to plain OpenHTTP.
func TestFederationOpenFederatedHTTPParity(t *testing.T) {
	smallPages(t, 40)

	mPlain, w := buildChaosMarket(t)
	srvPlain := httptest.NewServer(mPlain.Handler())
	defer srvPlain.Close()
	plain, err := OpenHTTP(srvPlain.URL, "acct", nil)
	if err != nil {
		t.Fatal(err)
	}

	mFed, _ := buildChaosMarket(t)
	srvFed := httptest.NewServer(mFed.Handler())
	defer srvFed.Close()
	federated, err := OpenFederated([]MarketEndpoint{
		{Name: "solo", BaseURL: srvFed.URL, AccountKey: "acct"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	for i, q := range chaosQueries(w) {
		pres, err := plain.Query(q)
		if err != nil {
			t.Fatalf("OpenHTTP query %d: %v", i, err)
		}
		fres, err := federated.Query(q)
		if err != nil {
			t.Fatalf("OpenFederated query %d: %v", i, err)
		}
		if !sameRows(sortedRows(pres), sortedRows(fres)) {
			t.Errorf("query %d rows diverged between OpenHTTP and OpenFederated", i)
		}
		if pres.Report.Transactions != fres.Report.Transactions {
			t.Errorf("query %d billed %d transactions federated, %d plain",
				i, fres.Report.Transactions, pres.Report.Transactions)
		}
	}
	pm, _ := mPlain.MeterOf("acct")
	fm, _ := mFed.MeterOf("acct")
	if pm.Transactions != fm.Transactions || pm.Calls != fm.Calls {
		t.Errorf("seller meters diverged: federated %d calls/%d transactions, plain %d/%d",
			fm.Calls, fm.Transactions, pm.Calls, pm.Transactions)
	}
}

// TestFederationErroringMirror points the preferred (cheapest) mirror at a
// schedule that errors every call before billing: every query must complete
// via failover, and because the faults are pre-billing the combined bill
// across all mirrors equals the clean run exactly — availability costs
// nothing when the dead mirror fails fast.
func TestFederationErroringMirror(t *testing.T) {
	smallPages(t, 40)
	cleanRows, cleanMeter := cleanBaseline(t)

	mirrors := buildMirrors(t, 3)
	s := chaos.NewSchedule(3)
	s.Target(func(string) bool { return true }, chaos.ServerError, -1)
	eps := mirrorEndpoints(mirrors, func(i int, inner market.Caller) market.Caller {
		if i == 0 {
			return chaos.Caller{Inner: inner, Schedule: s}
		}
		return inner
	})
	// Pin the erroring mirror far below the others: the failure-streak
	// penalty alone must not out-rank the price gap, so every attempt keeps
	// landing there until its per-dataset breakers open — this test is about
	// the breaker path, not streak deprioritization.
	eps[0].PriceFactor = 0.05
	client := openFederatedChaosClient(t, mirrors, eps, WithCallPolicy(CallPolicy{BreakAfter: 2, Cooldown: time.Minute}))

	_, w := buildChaosMarket(t)
	for i, q := range chaosQueries(w) {
		res, err := client.Query(q)
		if err != nil {
			t.Fatalf("query %d with mirror-0 erroring: %v", i, err)
		}
		if got := sortedRows(res); !sameRows(got, cleanRows[i]) {
			t.Errorf("query %d rows diverged with mirror-0 erroring", i)
		}
	}
	if m0, _ := mirrors[0].MeterOf("acct"); m0.Transactions != 0 {
		t.Errorf("pre-billing faults billed %d transactions at the erroring mirror", m0.Transactions)
	}
	total := sumMeters(mirrors)
	if total.Transactions != cleanMeter.Transactions {
		t.Errorf("combined bill %d transactions, clean run %d: failover was not free",
			total.Transactions, cleanMeter.Transactions)
	}
	if snap := client.Metrics(); snap.FederationFailovers == 0 {
		t.Error("no failovers recorded — the fault never exercised the federation")
	}
	// The dead mirror's breakers opened, and the health report says so.
	unhealthy := false
	for _, h := range client.FederationHealth() {
		if h.Name == "mirror-0" && !h.Healthy && h.OpenCircuits > 0 {
			unhealthy = true
		}
	}
	if !unhealthy {
		t.Error("health report does not flag the erroring mirror")
	}
}

// TestFederationPartitionedMirrorMidRun partitions the preferred mirror
// part-way through the run with post-billing Drop faults — the worst case
// for billing, since the mirror bills each call and then loses the result.
// Every query must still complete, and the combined bill must equal the
// clean run plus exactly the transactions the partitioned mirror billed
// after the partition began: the provable lost-call remainder, bounded by
// the breaker threshold per dataset.
func TestFederationPartitionedMirrorMidRun(t *testing.T) {
	smallPages(t, 40)
	cleanRows, cleanMeter := cleanBaseline(t)

	mirrors := buildMirrors(t, 3)
	s := chaos.NewSchedule(5)
	s.Target(func(string) bool { return true }, chaos.Drop, -1)
	s.Disarm() // healthy until mid-run
	eps := mirrorEndpoints(mirrors, func(i int, inner market.Caller) market.Caller {
		if i == 0 {
			return chaos.Caller{Inner: inner, Schedule: s}
		}
		return inner
	})
	// Cheapest by a wide margin (see TestFederationErroringMirror): the
	// partitioned mirror keeps winning the ranking until its breakers open,
	// which is what bounds the lost-call remainder at threshold×datasets.
	eps[0].PriceFactor = 0.05
	client := openFederatedChaosClient(t, mirrors, eps, WithCallPolicy(CallPolicy{BreakAfter: 2, Cooldown: time.Minute}))

	_, w := buildChaosMarket(t)
	queries := chaosQueries(w)
	var atPartition market.Meter
	for i, q := range queries {
		if i == 2 {
			// Everything mirror-0 bills from here on is a lost call.
			atPartition, _ = mirrors[0].MeterOf("acct")
			s.Rearm()
		}
		res, err := client.Query(q)
		if err != nil {
			t.Fatalf("query %d with mirror-0 partitioned: %v", i, err)
		}
		if got := sortedRows(res); !sameRows(got, cleanRows[i]) {
			t.Errorf("query %d rows diverged after the partition", i)
		}
	}

	m0, _ := mirrors[0].MeterOf("acct")
	remainder := m0.Transactions - atPartition.Transactions
	if remainder <= 0 {
		t.Error("partitioned mirror billed nothing after the partition: fault never fired")
	}
	total := sumMeters(mirrors)
	if got, want := total.Transactions, cleanMeter.Transactions+remainder; got != want {
		t.Errorf("combined bill %d transactions, want clean %d + lost-call remainder %d = %d",
			got, cleanMeter.Transactions, remainder, want)
	}

	// A second pass is served from the semantic store: nothing new billed
	// anywhere, so the remainder never compounds.
	before := sumMeters(mirrors)
	for i, q := range queries {
		res, err := client.Query(q)
		if err != nil {
			t.Fatalf("second pass query %d: %v", i, err)
		}
		if got := sortedRows(res); !sameRows(got, cleanRows[i]) {
			t.Errorf("second pass query %d rows diverged", i)
		}
	}
	if after := sumMeters(mirrors); after.Transactions != before.Transactions {
		t.Errorf("second pass re-billed %d transactions", after.Transactions-before.Transactions)
	}
}

// TestFederationHedgingUnderLatencyDegradation degrades the preferred
// mirror with pure latency (no errors — the worst case for failover, since
// nothing ever "fails"): with hedging armed, queries complete at the fast
// mirror's pace, and because the hedge cancels the slow loser during its
// injected delay — before it reaches the market — the combined bill still
// equals the clean run. No spend for speed.
func TestFederationHedgingUnderLatencyDegradation(t *testing.T) {
	smallPages(t, 40)
	cleanRows, cleanMeter := cleanBaseline(t)

	mirrors := buildMirrors(t, 2)
	s := chaos.NewSchedule(7).Rate(chaos.Latency, 1.0).WithLatency(500 * time.Millisecond)
	client := openFederatedChaosClient(t, mirrors, mirrorEndpoints(mirrors, func(i int, inner market.Caller) market.Caller {
		if i == 0 {
			return chaos.Caller{Inner: inner, Schedule: s}
		}
		return inner
	}), WithCallPolicy(CallPolicy{HedgeAfter: 10 * time.Millisecond}))

	_, w := buildChaosMarket(t)
	for i, q := range chaosQueries(w) {
		res, err := client.Query(q)
		if err != nil {
			t.Fatalf("query %d with mirror-0 latency-degraded: %v", i, err)
		}
		if got := sortedRows(res); !sameRows(got, cleanRows[i]) {
			t.Errorf("query %d rows diverged under hedging", i)
		}
	}
	snap := client.Metrics()
	if snap.FederationHedges == 0 || snap.FederationHedgeWins == 0 {
		t.Errorf("hedging never fired: hedges=%d wins=%d", snap.FederationHedges, snap.FederationHedgeWins)
	}
	if m0, _ := mirrors[0].MeterOf("acct"); m0.Transactions != 0 {
		t.Errorf("cancelled slow mirror still billed %d transactions", m0.Transactions)
	}
	total := sumMeters(mirrors)
	if total.Transactions != cleanMeter.Transactions {
		t.Errorf("combined bill %d transactions under hedging, clean run %d",
			total.Transactions, cleanMeter.Transactions)
	}
}
