package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	payless "payless"

	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// DurabilityParams controls the durability-cost experiment: a fixed billed
// workload run once per WAL fsync policy on a durable client, measuring the
// end-to-end query latency each policy costs and what recovery replays
// after a clean restart.
type DurabilityParams struct {
	Cfg workload.WHWConfig
	// Queries is the number of fan-out queries in the workload.
	Queries int
	Seed    int64
	// Dir is where the store directories are created; empty means a fresh
	// temporary directory (removed afterwards).
	Dir string
}

// DefaultDurabilityParams keeps the sweep laptop-fast while paying enough
// market calls that the per-policy fsync difference is visible.
func DefaultDurabilityParams() DurabilityParams {
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 8
	cfg.StationsPerCountry = 10
	cfg.Days = 20
	return DurabilityParams{Cfg: cfg, Queries: 6, Seed: 42}
}

// durabilityPolicies is the swept axis: X is the policy ordinal.
var durabilityPolicies = []struct {
	name   string
	policy payless.StoreSyncPolicy
}{
	{"per-call", payless.StoreSyncPerCall},
	{"batched", payless.StoreSyncBatched},
	{"off", payless.StoreSyncOff},
}

// FigDurability runs the same billed workload under each WAL fsync policy
// and reports total workload latency, WAL fsync counts, and the recovery
// replay after a clean close — the cost of crash safety at each setting
// (paylessbench -fig durability). The bill must be identical across
// policies: durability changes when bytes hit disk, never what is bought.
func FigDurability(p DurabilityParams) (*Figure, error) {
	w := workload.GenerateWHW(p.Cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		return nil, err
	}
	sqls := faultQueries(w, FaultParams{Queries: p.Queries, Seed: p.Seed})

	root := p.Dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "payless-durability-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	fig := &Figure{
		ID:     "FigDurability",
		Title:  "Durable-store cost per WAL fsync policy (0=per-call, 1=batched, 2=off)",
		XLabel: "policy",
	}
	latency := Series{System: "workload latency(ms)"}
	syncs := Series{System: "wal fsyncs"}
	replayed := Series{System: "recovered records"}
	recoverMs := Series{System: "recovery(ms)"}
	var bills []int64

	for x, pol := range durabilityPolicies {
		dir := filepath.Join(root, pol.name)
		key := "dur-" + pol.name
		m.RegisterAccount(key)
		open := func() (*payless.Client, error) {
			return payless.Open(payless.Config{
				Tables: append(m.ExportCatalog(), w.ZipMap),
				Caller: market.AccountCaller{Market: m, Key: key},
			},
				payless.WithDurableStore(dir),
				payless.WithStoreSync(pol.policy),
			)
		}
		c, err := open()
		if err != nil {
			return nil, err
		}
		if err := c.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
			return nil, err
		}
		var bill int64
		start := time.Now()
		for _, sql := range sqls {
			res, err := c.Query(sql)
			if err != nil {
				return nil, err
			}
			bill += res.Report.Transactions
		}
		elapsed := time.Since(start).Milliseconds()
		snap := c.Metrics()
		if err := c.Close(); err != nil {
			return nil, err
		}

		// Reopen the same directory: recovery replays the whole log (no
		// checkpoint ran at this scale), proving the bytes reached disk.
		c2, err := open()
		if err != nil {
			return nil, err
		}
		info := c2.StoreRecovery()
		if err := c2.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
			return nil, err
		}
		// Every query must now be answered from the recovered store for free.
		for _, sql := range sqls {
			res, err := c2.Query(sql)
			if err != nil {
				return nil, err
			}
			if res.Report.Transactions != 0 {
				return nil, fmt.Errorf("policy %s: recovered store re-billed %d transactions",
					pol.name, res.Report.Transactions)
			}
		}
		if err := c2.Close(); err != nil {
			return nil, err
		}

		latency.X, latency.Y = append(latency.X, x), append(latency.Y, elapsed)
		syncs.X, syncs.Y = append(syncs.X, x), append(syncs.Y, snap.WALSyncedAppends)
		replayed.X, replayed.Y = append(replayed.X, x), append(replayed.Y, info.SnapshotRecords+int64(info.Replayed))
		recoverMs.X, recoverMs.Y = append(recoverMs.X, x), append(recoverMs.Y, info.Micros/1000)
		bills = append(bills, bill)
	}
	for _, b := range bills {
		if b != bills[0] {
			return nil, fmt.Errorf("bill diverged across fsync policies: %v", bills)
		}
	}
	fig.Series = append(fig.Series, latency, syncs, replayed, recoverMs)
	return fig, nil
}
