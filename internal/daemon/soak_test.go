package daemon_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"payless"
	"payless/internal/catalog"
	"payless/internal/chaos"
	"payless/internal/daemon"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/tenant"
	"payless/internal/workload"
)

// soakParams sizes the overload soak's herd and gates. With 2 execution
// slots the offered load is workers/2 × capacity.
type soakParams struct {
	workers, requestsPerWorker, maxQueue int
	// maxShedP99 gates how slow a rejection may be: sheds must cost
	// microseconds-to-milliseconds, never a queue timeout's worth of wall
	// clock.
	maxShedP99 time.Duration
}

// soakOutcome is one request's fate as the driver saw it.
type soakOutcome struct {
	status  int
	latency time.Duration
	trans   int64
}

// p99 returns the 99th-percentile of the samples (0 when empty).
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted[(len(sorted)*99)/100]
}

// overloadSoak drives a deliberately undersized daemon's handler: 2
// execution slots and a tiny queue, federated across two market mirrors of
// which the second answers every call 5ms late, driven closed-loop by more
// workers than it has capacity. Phase 1 runs the base herd; mid-soak a
// tenant is hot-added with Registry.Apply (what paylessd's SIGHUP reload
// runs) and phase 2 adds its workers to the herd; finally the daemon drains
// gracefully with queries still arriving. It returns the accepted count and
// the first broken gate, all exact:
//
//   - every response is 200, 429 (shed), or 503 (draining) — overload
//     never turns into 5xx soup;
//   - shed p99 ≤ maxShedP99: rejections are fast, not queue timeouts;
//   - accepted p99 ≤ 5s: admitted work still finishes;
//   - the seller meter across both mirrors equals the sum of per-query
//     billing reports plus failed-query spend — shed requests bill
//     nothing, drained requests bill exactly once;
//   - the per-tenant ledgers sum to the same meter (attribution lost
//     nothing under overload, hot-reload, or drain).
func overloadSoak(p soakParams) (accepted int64, err error) {
	const (
		acct            = "overload-soak"
		seed            = 23
		degradedLatency = 5 * time.Millisecond
		maxAcceptedP99  = 5 * time.Second
	)
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 4
	cfg.StationsPerCountry = 10
	cfg.Days = 20
	w := workload.GenerateWHW(cfg)
	// Eight IN-over-every-country queries: one market call per country.
	in := "'" + strings.Join(w.Countries, "', '") + "'"
	var sqls []string
	for i := 0; i < 8; i++ {
		lo, hi := w.Dates[(seed+i)%(len(w.Dates)/2)], w.Dates[len(w.Dates)/2+(seed+i)%(len(w.Dates)/2)]
		sqls = append(sqls, fmt.Sprintf(
			"SELECT * FROM Weather WHERE Country IN (%s) AND Date >= %d AND Date <= %d", in, lo, hi))
	}

	mirrors := make([]*market.Market, 2)
	for i := range mirrors {
		mirrors[i] = market.New()
		if err := w.Install(mirrors[i], storage.NewDB(), 100, 1); err != nil {
			return 0, err
		}
		mirrors[i].RegisterAccount(acct)
	}
	slow := chaos.NewSchedule(seed).Rate(chaos.Latency, 1).WithLatency(degradedLatency)
	// held keeps the fast mirror's answers back at the start of phase 1
	// until a second request has joined one of its calls, or 20 ms pass:
	// the tenants then share a flight whatever the goroutines' timing.
	held, fast := make(chan struct{}), market.AccountCaller{Market: mirrors[0], Key: acct}
	eps := []payless.MarketEndpoint{
		{Name: "fast", Caller: market.CallerFunc(func(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
			<-held
			return fast.Call(ctx, q)
		})},
		{Name: "slow", Caller: chaos.Caller{
			Inner:    market.AccountCaller{Market: mirrors[1], Key: acct},
			Schedule: slow,
		}, LatencyHint: degradedLatency},
	}
	tenants := []tenant.Config{
		{Name: "online", Key: "key-online", Weight: 2},
		{Name: "batch", Key: "key-batch", Weight: 1},
	}
	reg, err := tenant.NewRegistry(0, tenants...)
	if err != nil {
		return 0, err
	}
	client, err := payless.Open(payless.Config{
		Tables:                      mirrors[0].ExportCatalog(),
		FederationEndpoints:         eps,
		DefaultTuplesPerTransaction: 100,
		FetchConcurrency:            2,
	}, payless.WithAdmitter(reg))
	if err != nil {
		return 0, err
	}
	srv, err := daemon.New(daemon.Config{
		Client:      client,
		Registry:    reg,
		MaxInflight: 2,
		MaxQueue:    p.maxQueue,
		ShedTarget:  5 * time.Millisecond,
		RetryAfter:  50 * time.Millisecond,
	})
	if err != nil {
		return 0, err
	}
	h := srv.Handler()

	// do posts one query and books the outcome. Only 200 bodies are
	// decoded; every response's status and latency are recorded.
	var mu sync.Mutex
	var outcomes []soakOutcome
	do := func(key, sql string, batch bool) error {
		hdr := map[string]string{}
		if batch {
			hdr["X-Priority"] = "batch"
		}
		start := time.Now()
		rec := postHdr(h, key, sql, hdr)
		o := soakOutcome{status: rec.Code, latency: time.Since(start)}
		if rec.Code == http.StatusOK {
			var qr daemon.QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
				return fmt.Errorf("decode 200 body: %w", err)
			}
			o.trans = qr.Transactions
		}
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
		return nil
	}
	// phase runs every worker closed-loop over the query list, the batch
	// tenant's workers at batch priority, all starting together. Each worker
	// starts from its own place in the list or, in step, every worker's r-th
	// request is the same query: requests of both tenants then share the
	// scheduler's flights, and only the first to collect a flight's result
	// may carry its bill.
	phase := func(herd []string, inStep bool) error {
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, len(herd))
		for i, key := range herd {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for r := 0; r < p.requestsPerWorker && errs[i] == nil; r++ {
					q := (i + r*len(herd)) % len(sqls)
					if inStep {
						q = r % len(sqls)
					}
					errs[i] = do(key, sqls[q], key == "key-batch")
				}
			}()
		}
		close(start)
		wg.Wait()
		return errors.Join(errs...)
	}

	// Phase 1: the base herd, half of it batch-priority, in step.
	herd := make([]string, p.workers)
	for i := range herd {
		herd[i] = []string{"key-online", "key-batch"}[i%2]
	}
	go func() {
		for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); time.Sleep(10 * time.Microsecond) {
			if client.Metrics().SchedSingleflightHits > 0 {
				break
			}
		}
		close(held)
	}()
	if err := phase(herd, true); err != nil {
		return 0, fmt.Errorf("phase 1: %w", err)
	}
	// Mid-soak hot reload: add a tenant while the daemon keeps serving.
	tenants = append(tenants, tenant.Config{Name: "late", Key: "key-late", Weight: 2})
	if err := reg.Apply(0, tenants); err != nil {
		return 0, err
	}
	herd = append(herd, "key-late", "key-late")
	if err := phase(herd, false); err != nil {
		return 0, fmt.Errorf("phase 2: %w", err)
	}
	// On the now-idle daemon the hot-added tenant must be served, not shed:
	// a lone request fast-paths into a free slot.
	if err := do("key-late", sqls[0], false); err != nil {
		return 0, err
	}
	if last := outcomes[len(outcomes)-1]; last.status != http.StatusOK {
		return 0, fmt.Errorf("hot-added tenant's uncontended query got HTTP %d, want 200", last.status)
	}

	// Drain with queries still arriving: in-flight queries finish (200),
	// late arrivals shed (503), nothing hangs and nothing double-bills.
	var arrivals sync.WaitGroup
	for i := 0; i < p.workers; i++ {
		arrivals.Add(1)
		go func() {
			defer arrivals.Done()
			do(herd[i%len(herd)], sqls[i%len(sqls)], false)
		}()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return 0, fmt.Errorf("drain: %w", err)
	}
	arrivals.Wait()

	// Gate: overload produces only accepted / shed / draining outcomes.
	var acceptedLat, shedLat []time.Duration
	var reported int64
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			accepted++
			acceptedLat = append(acceptedLat, o.latency)
			reported += o.trans
		case http.StatusTooManyRequests:
			shedLat = append(shedLat, o.latency)
		case http.StatusServiceUnavailable:
		default:
			return accepted, fmt.Errorf("unexpected HTTP %d under overload", o.status)
		}
	}
	if accepted == 0 {
		return 0, fmt.Errorf("zero goodput: every request was shed")
	}
	if sp := p99(shedLat); sp > p.maxShedP99 {
		return accepted, fmt.Errorf("shed p99 %v exceeds the %v gate (sheds must be cheap)", sp, p.maxShedP99)
	}
	if ap := p99(acceptedLat); ap > maxAcceptedP99 {
		return accepted, fmt.Errorf("accepted p99 %v exceeds the %v gate", ap, maxAcceptedP99)
	}

	// Gate: exact billing integrity across overload, hot reload, and drain.
	var meterTrans int64
	for _, m := range mirrors {
		meter, _ := m.MeterOf(acct)
		meterTrans += meter.Transactions
	}
	failedSpend := client.Metrics().FailedQuerySpendTransactions
	if meterTrans != reported+failedSpend {
		return accepted, fmt.Errorf("billing mismatch: sellers metered %d transactions, buyers report %d + %d failed-spend",
			meterTrans, reported, failedSpend)
	}
	var ledger int64
	for _, c := range tenants {
		t, _ := reg.Lookup(c.Name)
		ledger += t.Spend()
	}
	if ledger != meterTrans {
		return accepted, fmt.Errorf("attribution mismatch: tenant ledgers sum to %d, sellers metered %d", ledger, meterTrans)
	}
	return accepted, nil
}

// TestOverloadSoak is the overload gate: the soak must hold every
// invariant — only 200/429/503 outcomes, shed p99 under the bound, exact
// seller-meter == buyer-report billing through overload, hot tenant add,
// and graceful drain.
func TestOverloadSoak(t *testing.T) {
	// 2 slots + 2 queue seats driven by 8 workers: 4× capacity.
	accepted, err := overloadSoak(soakParams{workers: 8, requestsPerWorker: 5, maxQueue: 2, maxShedP99: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if accepted == 0 {
		t.Fatal("no accepted queries across the soak")
	}
	t.Logf("%d queries accepted", accepted)
}

// TestOverloadSoakShedGate proves the gate actually bites: an impossible
// shed-latency bound must fail the soak when any shed occurred.
func TestOverloadSoakShedGate(t *testing.T) {
	p := soakParams{workers: 8, requestsPerWorker: 4, maxQueue: 2, maxShedP99: time.Nanosecond}
	if _, err := overloadSoak(p); err == nil {
		// Legal: a run with zero sheds trivially passes. Retry with a herd
		// that cannot avoid shedding.
		p.workers = 12
		p.maxQueue = 1
		p.requestsPerWorker = 6
		if _, err := overloadSoak(p); err == nil {
			t.Skip("no sheds occurred; gate not exercisable on this machine")
		}
	}
}
