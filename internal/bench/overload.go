package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	payless "payless"

	"payless/internal/chaos"
	"payless/internal/daemon"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/tenant"
	"payless/internal/workload"
)

// OverloadParams controls the overload soak: a deliberately undersized
// paylessd (few execution slots, tiny queue) federated across two market
// mirrors — one latency-degraded — driven closed-loop by more workers than
// it has capacity, with a tenant hot-added mid-soak and a graceful drain at
// the end. The figure's claims: under 2×+ offered load the daemon keeps
// serving (bounded accepted latency), rejections are fast cheap 429s (shed
// p99 gate), the books balance exactly (seller meter == Σ per-query
// reports), and the lifecycle operations lose nothing.
type OverloadParams struct {
	Cfg workload.WHWConfig
	// Workers is the closed-loop driver count; with MaxInflight slots the
	// offered load is Workers/MaxInflight × capacity.
	Workers int
	// RequestsPerWorker is issued per worker per phase (two phases: before
	// and after the mid-soak tenant add).
	RequestsPerWorker int
	// MaxInflight and MaxQueue size the daemon's admission gate.
	MaxInflight int
	MaxQueue    int
	// ShedTarget is the daemon's slot-wait tolerance.
	ShedTarget time.Duration
	// DegradedLatency is injected into every call served by the second
	// mirror (the "slow mirror" the cost model must route around).
	DegradedLatency time.Duration
	// MaxShedP99 gates how slow a rejection may be: sheds must cost
	// microseconds-to-milliseconds, never a queue timeout's worth of wall
	// clock. 0 means 100ms.
	MaxShedP99 time.Duration
	// MaxAcceptedP99 gates the latency of ACCEPTED queries under overload.
	// 0 means 5s.
	MaxAcceptedP99 time.Duration
	Seed           int64
}

// DefaultOverloadParams: 2 slots + 2 queue seats driven by 8 workers
// (4× capacity), a 5ms-degraded second mirror, and the CI gates.
func DefaultOverloadParams() OverloadParams {
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 4
	cfg.StationsPerCountry = 10
	cfg.Days = 20
	return OverloadParams{
		Cfg:               cfg,
		Workers:           8,
		RequestsPerWorker: 8,
		MaxInflight:       2,
		MaxQueue:          2,
		ShedTarget:        5 * time.Millisecond,
		DegradedLatency:   5 * time.Millisecond,
		MaxShedP99:        100 * time.Millisecond,
		MaxAcceptedP99:    5 * time.Second,
		Seed:              23,
	}
}

// overloadOutcome is one request's fate as the driver saw it.
type overloadOutcome struct {
	status  int
	latency time.Duration
	trans   int64
}

// overloadDriver issues queries and records outcomes thread-safely.
type overloadDriver struct {
	base string
	mu   sync.Mutex
	out  []overloadOutcome
}

// do POSTs one query and books the outcome. Only 200 bodies are decoded;
// every response's status and latency are recorded.
func (d *overloadDriver) do(key, sql string, batch bool) error {
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/query", strings.NewReader(sql))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	if batch {
		req.Header.Set("X-Priority", "batch")
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	o := overloadOutcome{status: resp.StatusCode, latency: time.Since(start)}
	if resp.StatusCode == http.StatusOK {
		var qr daemonQueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			return fmt.Errorf("decode 200 body: %w", err)
		}
		o.trans = qr.Transactions
	}
	d.mu.Lock()
	d.out = append(d.out, o)
	d.mu.Unlock()
	return nil
}

// snapshot returns the outcomes recorded so far.
func (d *overloadDriver) snapshot() []overloadOutcome {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]overloadOutcome(nil), d.out...)
}

// phase runs every worker closed-loop over the query list.
func (d *overloadDriver) phase(workers []overloadWorker, sqls []string, requests int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, wk overloadWorker) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				if err := d.do(wk.key, sqls[(i+r*len(workers))%len(sqls)], wk.batch); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type overloadWorker struct {
	key   string
	batch bool
}

// p99 returns the 99th-percentile of the samples (0 when empty).
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)*99)/100]
}

// FigOverload is the end-to-end overload soak. Phase 1 drives the
// undersized daemon at 4× capacity; mid-soak a tenant is hot-added with
// Registry.Apply (what paylessd's SIGHUP reload runs) and phase 2 adds its
// workers to the herd; finally the daemon drains gracefully with queries
// still arriving.
// Gates enforced inline, all exact:
//
//   - every response is 200, 429 (shed), or 503 (draining) — overload
//     never turns into 5xx soup;
//   - shed p99 ≤ MaxShedP99: rejections are fast, not queue timeouts;
//   - accepted p99 ≤ MaxAcceptedP99: admitted work still finishes;
//   - the seller meter across both mirrors equals the sum of per-query
//     billing reports plus failed-query spend — shed requests bill
//     nothing, drained requests bill exactly once;
//   - the per-tenant ledgers sum to the same meter (attribution lost
//     nothing under overload, hot-reload, or drain).
func FigOverload(p OverloadParams) (*Figure, error) {
	if p.MaxShedP99 <= 0 {
		p.MaxShedP99 = 100 * time.Millisecond
	}
	if p.MaxAcceptedP99 <= 0 {
		p.MaxAcceptedP99 = 5 * time.Second
	}
	w := workload.GenerateWHW(p.Cfg)
	sqls := federationQueries(w, 8, p.Seed)

	// Two mirrors of the same market; mirror-1 answers every call
	// DegradedLatency late.
	const acct = "overload-bench"
	mirrors := make([]*market.Market, 2)
	for i := range mirrors {
		m := market.New()
		if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
			return nil, err
		}
		m.RegisterAccount(acct)
		mirrors[i] = m
	}
	slow := chaos.NewSchedule(p.Seed).Rate(chaos.Latency, 1).WithLatency(p.DegradedLatency)
	eps := []payless.MarketEndpoint{
		{Name: "fast", Caller: market.AccountCaller{Market: mirrors[0], Key: acct}},
		{Name: "slow", Caller: chaos.Caller{
			Inner:    market.AccountCaller{Market: mirrors[1], Key: acct},
			Schedule: slow,
		}, LatencyHint: p.DegradedLatency},
	}

	tenants := []tenant.Config{
		{Name: "online", Key: "key-online", Weight: 2},
		{Name: "batch", Key: "key-batch", Weight: 1},
	}
	reg, err := tenant.NewRegistry(0, tenants...)
	if err != nil {
		return nil, err
	}
	client, err := payless.Open(payless.Config{
		Tables:                      mirrors[0].ExportCatalog(),
		FederationEndpoints:         eps,
		DefaultTuplesPerTransaction: 100,
		FetchConcurrency:            2,
	}, payless.WithAdmitter(reg))
	if err != nil {
		return nil, err
	}
	srv, err := daemon.New(daemon.Config{
		Client:      client,
		Registry:    reg,
		MaxInflight: p.MaxInflight,
		MaxQueue:    p.MaxQueue,
		ShedTarget:  p.ShedTarget,
		RetryAfter:  50 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	driver := &overloadDriver{base: ts.URL}

	// Phase 1: the base herd, half of it batch-priority.
	herd := make([]overloadWorker, p.Workers)
	for i := range herd {
		if i%2 == 0 {
			herd[i] = overloadWorker{key: "key-online"}
		} else {
			herd[i] = overloadWorker{key: "key-batch", batch: true}
		}
	}
	if err := driver.phase(herd, sqls, p.RequestsPerWorker); err != nil {
		return nil, fmt.Errorf("phase 1: %w", err)
	}
	phase1 := driver.snapshot()

	// Mid-soak hot reload: add a tenant while the daemon keeps serving.
	tenants = append(tenants, tenant.Config{Name: "late", Key: "key-late", Weight: 2})
	if err := reg.Apply(0, tenants); err != nil {
		return nil, err
	}
	herd = append(herd, overloadWorker{key: "key-late"}, overloadWorker{key: "key-late"})
	if err := driver.phase(herd, sqls, p.RequestsPerWorker); err != nil {
		return nil, fmt.Errorf("phase 2: %w", err)
	}
	// On the now-idle daemon the hot-added tenant must be served, not shed:
	// a lone request fast-paths into a free slot.
	if err := driver.do("key-late", sqls[0], false); err != nil {
		return nil, err
	}
	if last := driver.snapshot(); last[len(last)-1].status != http.StatusOK {
		return nil, fmt.Errorf("hot-added tenant's uncontended query got HTTP %d, want 200", last[len(last)-1].status)
	}

	// Drain with queries still arriving: in-flight queries finish (200),
	// late arrivals shed (503), nothing hangs and nothing double-bills.
	var arrivals sync.WaitGroup
	for i := 0; i < p.Workers; i++ {
		arrivals.Add(1)
		go func(i int) {
			defer arrivals.Done()
			driver.do(herd[i%len(herd)].key, sqls[i%len(sqls)], false)
		}(i)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	arrivals.Wait()
	all := driver.snapshot()
	phase2 := all[len(phase1):]

	// Gate: overload produces only accepted / shed / draining outcomes.
	var accepted, shed, draining int64
	var acceptedLat, shedLat []time.Duration
	var reported int64
	for _, o := range all {
		switch o.status {
		case http.StatusOK:
			accepted++
			acceptedLat = append(acceptedLat, o.latency)
			reported += o.trans
		case http.StatusTooManyRequests:
			shed++
			shedLat = append(shedLat, o.latency)
		case http.StatusServiceUnavailable:
			draining++
		default:
			return nil, fmt.Errorf("unexpected HTTP %d under overload", o.status)
		}
	}
	if accepted == 0 {
		return nil, fmt.Errorf("zero goodput: every request was shed")
	}
	if sp := p99(shedLat); sp > p.MaxShedP99 {
		return nil, fmt.Errorf("shed p99 %v exceeds the %v gate (sheds must be cheap)", sp, p.MaxShedP99)
	}
	if ap := p99(acceptedLat); ap > p.MaxAcceptedP99 {
		return nil, fmt.Errorf("accepted p99 %v exceeds the %v gate", ap, p.MaxAcceptedP99)
	}

	// Gate: exact billing integrity across overload, hot reload, and drain.
	var meterTrans int64
	for _, m := range mirrors {
		meter, _ := m.MeterOf(acct)
		meterTrans += meter.Transactions
	}
	failedSpend := client.Metrics().FailedQuerySpendTransactions
	if meterTrans != reported+failedSpend {
		return nil, fmt.Errorf("billing mismatch: sellers metered %d transactions, buyers report %d + %d failed-spend",
			meterTrans, reported, failedSpend)
	}
	var ledger int64
	for _, c := range tenants {
		t, _ := reg.Lookup(c.Name)
		ledger += t.Spend()
	}
	if ledger != meterTrans {
		return nil, fmt.Errorf("attribution mismatch: tenant ledgers sum to %d, sellers metered %d", ledger, meterTrans)
	}

	countBy := func(out []overloadOutcome, status int) int64 {
		var n int64
		for _, o := range out {
			if o.status == status {
				n++
			}
		}
		return n
	}
	fig := &Figure{
		ID: "FigOverload",
		Title: fmt.Sprintf("Overload soak at %d workers over %d slots+%d queue (shed p99 %v, accepted p99 %v, meter == reports == %d)",
			p.Workers, p.MaxInflight, p.MaxQueue, p99(shedLat), p99(acceptedLat), meterTrans),
		XLabel: "phase",
	}
	acc := Series{System: "accepted (goodput)", X: []int{1, 2}, Y: []int64{countBy(phase1, http.StatusOK), countBy(phase2, http.StatusOK)}}
	shd := Series{System: "shed 429", X: []int{1, 2}, Y: []int64{countBy(phase1, http.StatusTooManyRequests), countBy(phase2, http.StatusTooManyRequests)}}
	drn := Series{System: "draining 503", X: []int{1, 2}, Y: []int64{0, draining}}
	fig.Series = append(fig.Series, acc, shd, drn)
	return fig, nil
}
