package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	payless "payless"

	"payless/internal/daemon"
	"payless/internal/market"
	"payless/internal/tenant"
	"payless/internal/workload"
)

// DaemonParams controls the multi-tenant daemon experiment: N tenants replay
// the SAME query list concurrently over real HTTP through one paylessd
// instance — one shared semantic store, one call scheduler — and the figure
// reports the seller's billed transactions at each N. The headline claim is
// the flat line: because every box any tenant buys is free for all others
// (and concurrent purchases single-flight), N tenants over overlapping boxes
// bill roughly what ONE tenant bills.
type DaemonParams struct {
	Cfg workload.WHWConfig
	// Tenants are the tenant counts to sweep; the first should be 1 (the
	// baseline the flatness gate divides by).
	Tenants []int
	// Queries is the number of disjoint queries each tenant replays.
	Queries int
	// MaxOvershoot is the flatness gate: the N-tenant bill must stay within
	// this factor of the 1-tenant bill. 0 means 1.2.
	MaxOvershoot float64
}

// DefaultDaemonParams mirrors the sharing sweep's scale with a 1.2×
// flatness gate — the bound the CI daemon-smoke job enforces.
func DefaultDaemonParams() DaemonParams {
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 8
	cfg.StationsPerCountry = 10
	cfg.Days = 20
	return DaemonParams{
		Cfg:          cfg,
		Tenants:      []int{1, 2, 4},
		Queries:      6,
		MaxOvershoot: 1.2,
	}
}

// daemonQueryResponse mirrors the billing fields of the daemon's JSON
// envelope (internal/daemon.QueryResponse).
type daemonQueryResponse struct {
	Rows         [][]string `json:"rows"`
	Transactions int64      `json:"transactions"`
}

// runDaemon stands up a fresh market + shared client + paylessd HTTP server
// and replays the query list with n tenants, returning the seller-side
// billed transactions plus the per-tenant ledger sum. Overlap is pinned the
// same way FigShared pins it: a gate holds each round's wire call open
// until the scheduler metrics show every other tenant joined the flight, so
// "n tenants buying the same box at the same time" is a controlled fact of
// the experiment rather than a timing accident.
func runDaemon(p DaemonParams, env *sharedEnv, n int) (meterTrans, ledgerSum int64, err error) {
	acct := fmt.Sprintf("daemon-%d", n)
	env.m.RegisterAccount(acct)

	cfgs := make([]tenant.Config, n)
	for i := range cfgs {
		cfgs[i] = tenant.Config{Name: fmt.Sprintf("t%02d", i), Key: fmt.Sprintf("key-%02d", i)}
	}
	reg, err := tenant.NewRegistry(0, cfgs...)
	if err != nil {
		return 0, 0, err
	}
	gc := &sharedGate{inner: market.AccountCaller{Market: env.m, Key: acct}}
	client, err := payless.Open(payless.Config{
		Tables:                      append(env.m.ExportCatalog(), env.w.ZipMap),
		Caller:                      gc,
		DefaultTuplesPerTransaction: 100,
		FetchConcurrency:            4,
	}, payless.WithAdmitter(reg))
	if err != nil {
		return 0, 0, err
	}
	defer client.Close()
	if err := client.LoadLocal("ZipMap", env.w.ZipMapRows); err != nil {
		return 0, 0, err
	}

	srv, err := daemon.New(daemon.Config{Client: client, Registry: reg, MaxInflight: 4 * n})
	if err != nil {
		return 0, 0, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, sql := range env.sql {
		if n == 1 {
			if err := daemonQuery(ts.URL, cfgs[0].Key, sql); err != nil {
				return 0, 0, fmt.Errorf("tenant %s: %w", cfgs[0].Name, err)
			}
			continue
		}
		gate := make(chan struct{})
		gc.setGate(gate)
		hitsBefore := client.Metrics().SchedSingleflightHits

		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := daemonQuery(ts.URL, cfgs[i].Key, sql); err != nil {
					errs[i] = fmt.Errorf("tenant %s: %w", cfgs[i].Name, err)
				}
			}(i)
		}
		waitErr := waitShared(func() bool {
			return client.Metrics().SchedSingleflightHits >= hitsBefore+int64(n-1)
		})
		close(gate)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, 0, err
			}
		}
		if waitErr != nil {
			return 0, 0, waitErr
		}
	}

	meter, _ := env.m.MeterOf(acct)
	for _, c := range cfgs {
		t, _ := reg.Lookup(c.Name)
		ledgerSum += t.Spend()
	}
	return meter.Transactions, ledgerSum, nil
}

// daemonQuery POSTs one SQL statement as the given tenant and checks the
// response decodes.
func daemonQuery(base, key, sql string) error {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query", strings.NewReader(sql))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out daemonQueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if len(out.Rows) == 0 {
		return fmt.Errorf("query returned no rows")
	}
	return nil
}

// FigDaemon is the paylessd load experiment: the seller-side bill as the
// number of concurrent tenants grows, each replaying the same overlapping
// query list through one daemon. Three invariants are enforced inline:
// the per-tenant ledgers must sum to the seller meter at every N (no spend
// lost or double-booked by first-payer attribution), the N-tenant bill must
// stay within MaxOvershoot of the single-tenant baseline (the flat meter),
// and N tenants must never bill more than N independent buyers would.
func FigDaemon(p DaemonParams) (*Figure, error) {
	if p.MaxOvershoot <= 0 {
		p.MaxOvershoot = 1.2
	}
	env, err := newSharedEnv(SharedParams{Cfg: p.Cfg, Queries: p.Queries})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "FigDaemon",
		Title: fmt.Sprintf("Seller-billed transactions vs. concurrent tenants through one paylessd (%d overlapping queries per tenant, gate %.1fx)",
			len(env.sql), p.MaxOvershoot),
		XLabel: "tenants",
	}
	shared := Series{System: "paylessd shared store"}
	baseline := Series{System: "naive: per-tenant stores"}
	var single int64
	for _, n := range p.Tenants {
		billed, ledger, err := runDaemon(p, env, n)
		if err != nil {
			return nil, fmt.Errorf("daemon n=%d: %w", n, err)
		}
		if ledger != billed {
			return nil, fmt.Errorf("n=%d: tenant ledgers sum to %d but the seller billed %d", n, ledger, billed)
		}
		if n == 1 || single == 0 {
			single = billed
		}
		if float64(billed) > p.MaxOvershoot*float64(single) {
			return nil, fmt.Errorf("n=%d tenants billed %d, over the %.1fx gate on the single-tenant bill %d",
				n, billed, p.MaxOvershoot, single)
		}
		shared.X = append(shared.X, n)
		shared.Y = append(shared.Y, billed)
		baseline.X = append(baseline.X, n)
		baseline.Y = append(baseline.Y, single*int64(n))
	}
	fig.Series = append(fig.Series, shared, baseline)
	return fig, nil
}
