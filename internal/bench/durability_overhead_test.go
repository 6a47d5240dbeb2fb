package bench

import (
	"path/filepath"
	"testing"

	payless "payless"

	"payless/internal/workload"
)

// TestFigDurability smoke-runs the durability sweep at a reduced scale: the
// bill must match across fsync policies and every policy must recover its
// full record log after a clean close.
func TestFigDurability(t *testing.T) {
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 4
	cfg.StationsPerCountry = 5
	cfg.CitiesPerCountry = 2
	cfg.Days = 10
	cfg.Zips = 20
	fig, err := FigDurability(DurabilityParams{Cfg: cfg, Queries: 2, Seed: 7, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 || len(fig.Series[0].X) != 3 {
		t.Fatalf("series shape: %+v", fig.Series)
	}
	if fig.XLabel != "policy" {
		t.Errorf("xlabel: %q", fig.XLabel)
	}
	recovered := fig.Series[2]
	for i, y := range recovered.Y {
		if y == 0 {
			t.Errorf("policy %d recovered no records", recovered.X[i])
		}
	}
	if out := fig.Render(); len(out) == 0 {
		t.Error("empty render")
	}
}

// TestIdleDurableStoreCostsNothing is the regression guard for the
// Record-path refactor: on a workload that records nothing (SQR off, as in
// the fan-out experiment) a durable client must do exactly the work of a
// memory-only one — no WAL append, no fsync, no allocations of its own —
// so the nil-WAL branch every default client takes is free a fortiori.
// (What an fsync policy costs when records do flow is FigDurability's and
// the ledger's whw_buy workload to measure.) Under the race detector the
// two allocation counts drift apart in either direction, so the gate runs
// only without it.
func TestIdleDurableStoreCostsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	env, err := newConcurrencyEnv(smallConcurrencyParams())
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	base, _ := replayAllocs(t, env, "alloc-memory")
	durable, client := replayAllocs(t, env, "alloc-durable",
		payless.WithDurableStore(filepath.Join(t.TempDir(), "store")),
		payless.WithStoreSync(payless.StoreSyncOff))
	if m := client.Metrics(); m.WALAppends != 0 || m.WALSyncedAppends != 0 {
		t.Fatalf("an idle durable store appended %d WAL frames and fsynced %d", m.WALAppends, m.WALSyncedAppends)
	}
	if !sameAllocs(base, durable) {
		t.Fatalf("an idle durable store changes the workload's allocations: %v memory-only, %v durable", base, durable)
	}
}
