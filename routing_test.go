package payless

import (
	"strings"
	"sync"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/chaos"
	"payless/internal/market"
	"payless/internal/storage"
)

// The routing suite pins where a federated client's routing state lives:
// the federation holds the endpoint pool and the pinned tables' terms, a
// reload changes only the pool, and tables handed to the client are never
// written.

// namedEndpoints returns the two mirrors as endpoints a (factor 1) and b
// (factor 2) under the given names.
func namedEndpoints(mirrors []*market.Market, a, b string) []MarketEndpoint {
	return []MarketEndpoint{
		{Name: a, Caller: market.AccountCaller{Market: mirrors[0], Key: "acct"}, PriceFactor: 1},
		{Name: b, Caller: market.AccountCaller{Market: mirrors[1], Key: "acct"}, PriceFactor: 2},
	}
}

// withTables hands OpenFederated in-process tables instead of registering.
func withTables(tables []*catalog.Table) Option {
	return func(c *Config) { c.Tables = tables }
}

// transactionsAt reads one mirror's seller meter.
func transactionsAt(m *market.Market) int64 {
	meter, _ := m.MeterOf("acct")
	return meter.Transactions
}

// TestRoutingRenameUnderTrafficFailsNoQuery renames every endpoint back and
// forth while queries run. A table without Mirrors is offered by whatever
// the pool holds, so no query may ever find the table offered nowhere.
func TestRoutingRenameUnderTrafficFailsNoQuery(t *testing.T) {
	mirrors := buildMirrors(t, 2)
	_, w := buildChaosMarket(t)
	queries := chaosQueries(w)
	client, err := OpenFederated(namedEndpoints(mirrors, "a", "b"), nil,
		withTables(mirrors[0].ExportCatalog()),
		WithDefaultTuplesPerTransaction(100),
		WithConsistency(Strong())) // every query buys, so every query is routed
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	stop := make(chan struct{})
	renamed := make(chan int)
	go func() {
		n := 0
		defer func() { renamed <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a, b := "a", "b"
			if n%2 == 0 {
				a, b = "c", "d"
			}
			if err := client.UpdateFederationEndpoints(namedEndpoints(mirrors, a, b)); err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 2*4*len(queries))
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for _, q := range queries {
					if _, err := client.Query(q); err != nil {
						errs <- err
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	n := <-renamed
	close(errs)
	failed := 0
	for err := range errs {
		if failed == 0 {
			t.Errorf("first failure: %v", err)
		}
		failed++
	}
	if failed > 0 {
		t.Fatalf("%d of %d queries failed across %d renames", failed, 2*4*len(queries), n)
	}
	if n == 0 {
		t.Fatal("the pool was never renamed while queries ran")
	}
}

// TestRoutingReloadKeepsPinnedTerms pins every table to both endpoints at
// its own prices, {a: 5, b: 1}, against endpoint terms {a: 1, b: 2}. A
// reload with the same names changes nothing: the table still buys at b.
func TestRoutingReloadKeepsPinnedTerms(t *testing.T) {
	mirrors := buildMirrors(t, 2)
	_, w := buildChaosMarket(t)
	queries := chaosQueries(w)
	tables := mirrors[0].ExportCatalog()
	for _, tb := range tables {
		tb.Mirrors = []catalog.Mirror{{Endpoint: "a", PriceFactor: 5}, {Endpoint: "b", PriceFactor: 1}}
	}
	eps := namedEndpoints(mirrors, "a", "b")
	client, err := Open(Config{Tables: tables, FederationEndpoints: eps, DefaultTuplesPerTransaction: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Query(queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := client.UpdateFederationEndpoints(eps); err != nil {
		t.Fatal(err)
	}
	before := transactionsAt(mirrors[1])
	if _, err := client.Query(queries[1]); err != nil {
		t.Fatal(err)
	}
	if got := transactionsAt(mirrors[0]); got != 0 {
		t.Fatalf("mirror a, priced 5x for these tables, billed %d transactions", got)
	}
	if transactionsAt(mirrors[1]) == before {
		t.Fatal("the query after the reload did not bill mirror b")
	}
}

// TestRoutingOpenFederatedLeavesTablesUntouched opens two federated clients
// over the same caller-supplied tables with different endpoint names. The
// tables keep no Mirrors, and the second client routes on its own pool.
func TestRoutingOpenFederatedLeavesTablesUntouched(t *testing.T) {
	mirrors := buildMirrors(t, 2)
	_, w := buildChaosMarket(t)
	queries := chaosQueries(w)
	tables := mirrors[0].ExportCatalog()
	for i, names := range [][2]string{{"a", "b"}, {"c", "d"}} {
		client, err := OpenFederated(namedEndpoints(mirrors, names[0], names[1]), nil,
			withTables(tables), WithDefaultTuplesPerTransaction(100))
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			if len(tb.Mirrors) != 0 {
				t.Fatalf("client %d wrote Mirrors onto table %s: %+v", i, tb.Name, tb.Mirrors)
			}
		}
		if _, err := client.Query(queries[i]); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		client.Close()
	}
}

// TestRoutingPinnedTableWithoutEndpointsFails pins Weather to endpoint a and
// then reloads the pool without a. Weather is offered nowhere: its query
// fails before any call and bills nothing, while unpinned Station still
// routes to b.
func TestRoutingPinnedTableWithoutEndpointsFails(t *testing.T) {
	mirrors := buildMirrors(t, 2)
	_, w := buildChaosMarket(t)
	queries := chaosQueries(w)
	tables := mirrors[0].ExportCatalog()
	for _, tb := range tables {
		if tb.Name == "Weather" {
			tb.Mirrors = []catalog.Mirror{{Endpoint: "a"}}
		}
	}
	eps := namedEndpoints(mirrors, "a", "b")
	client, err := Open(Config{Tables: tables, FederationEndpoints: eps, DefaultTuplesPerTransaction: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.UpdateFederationEndpoints(eps[1:]); err != nil {
		t.Fatal(err)
	}

	_, err = client.Query(queries[0]) // Weather only
	if err == nil || !strings.Contains(err.Error(), "no endpoint offers") {
		t.Fatalf("pinned table with no endpoint left: err = %v, want \"no endpoint offers\"", err)
	}
	if total := sumMeters(mirrors); total.Transactions != 0 {
		t.Fatalf("the refused query billed %d transactions", total.Transactions)
	}
	if _, err := client.Query(queries[1]); err != nil { // Station only
		t.Fatal(err)
	}
	if transactionsAt(mirrors[1]) == 0 {
		t.Fatal("unpinned Station did not route to b")
	}
}

// TestRoutingSpendStaysAtTheCheapestMirror sweeps the price skew s across
// three mirrors selling at 1×, (1+s)× and (1+2s)× the base price. Federated
// spend stays at the cheapest mirror's bill whatever the skew; a client
// pinned to the dearest mirror pays more at every s > 0; and with the
// cheapest mirror erroring every call, failover spend stays within 1.3× the
// federated spend (the second-cheapest mirror is at most 1.25×).
func TestRoutingSpendStaysAtTheCheapestMirror(t *testing.T) {
	_, w := buildChaosMarket(t)
	queries := chaosQueries(w)
	// spend replays the workload over fresh mirrors at skew%, through a
	// client federated over all three or pinned to the dearest, and returns
	// the combined seller-side price.
	spend := func(skew int, pinned bool, wrap func(i int, inner market.Caller) market.Caller) float64 {
		t.Helper()
		factors := []float64{1, 1 + float64(skew)/100, 1 + 2*float64(skew)/100}
		mirrors := make([]*market.Market, len(factors))
		for i, f := range factors {
			mirrors[i] = market.New()
			if err := w.Install(mirrors[i], storage.NewDB(), 100, f); err != nil {
				t.Fatal(err)
			}
			mirrors[i].RegisterAccount("acct")
		}
		cfg := Config{
			Tables:      mirrors[0].ExportCatalog(),
			Calls:       CallPolicy{BreakAfter: 2, Cooldown: time.Minute},
			Consistency: Strong(), // every query pays its full fan-out
		}
		if pinned {
			cfg.Caller = market.AccountCaller{Market: mirrors[2], Key: "acct"}
		} else {
			cfg.FederationEndpoints = mirrorEndpoints(mirrors, wrap)
			for i := range cfg.FederationEndpoints {
				cfg.FederationEndpoints[i].PriceFactor = factors[i]
			}
		}
		client, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for _, q := range queries {
			if _, err := client.Query(q); err != nil {
				t.Fatalf("skew=%d%% pinned=%v: %v", skew, pinned, err)
			}
		}
		return sumMeters(mirrors).Price
	}
	down := chaos.NewSchedule(17)
	down.Target(func(string) bool { return true }, chaos.ServerError, -1)
	cheapestDown := func(i int, inner market.Caller) market.Caller {
		if i == 0 {
			return chaos.Caller{Inner: inner, Schedule: down}
		}
		return inner
	}

	var base float64
	for _, skew := range []int{0, 10, 25} {
		fed, pinned, degraded := spend(skew, false, nil), spend(skew, true, nil), spend(skew, false, cheapestDown)
		t.Logf("skew=%d%%: spend %.2f federated, %.2f pinned to the dearest, %.2f with the cheapest down", skew, fed, pinned, degraded)
		if fed == 0 {
			t.Fatalf("skew=%d%%: federated spend is zero; the checks would be vacuous", skew)
		}
		if skew == 0 {
			base = fed
		}
		if fed != base {
			t.Errorf("skew=%d%%: federated spend moved off the cheapest mirror: %.2f vs %.2f", skew, fed, base)
		}
		if skew > 0 && pinned <= fed {
			t.Errorf("skew=%d%%: pinned spend %.2f not above federated %.2f", skew, pinned, fed)
		}
		if degraded > 1.3*fed {
			t.Errorf("skew=%d%%: degraded spend %.2f exceeds 1.3x federated %.2f", skew, degraded, fed)
		}
	}
}
