package payless

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"payless/internal/diskfault"
	"payless/internal/market"
)

// durableSetup builds a durable client over the WHW market in dir.
func durableSetup(t *testing.T, m *market.Market, c1 *Client, dir string, mutate func(*Config)) *Client {
	t.Helper()
	cfg := Config{Tables: c1.cfg.Tables, Caller: c1.cfg.Caller, StoreDir: dir}
	if mutate != nil {
		mutate(&cfg)
	}
	client, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// TestDurableClientSurvivesRestart pays once, closes, reopens the same
// store directory, and must answer the same query for free.
func TestDurableClientSurvivesRestart(t *testing.T) {
	base, m, w := testSetup(t, nil)
	dir := filepath.Join(t.TempDir(), "store")
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[5])

	c1 := durableSetup(t, m, base, dir, nil)
	if err := c1.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	first, err := c1.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.Transactions == 0 {
		t.Fatal("first run should pay")
	}
	s := c1.Metrics()
	if s.WALAppends == 0 || s.WALSyncedAppends != s.WALAppends {
		t.Errorf("per-call sync should fsync every append: %+v", s)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	m.RegisterAccount("restart")
	c2 := durableSetup(t, m, base, dir, func(c *Config) {
		c.Caller = market.AccountCaller{Market: m, Key: "restart"}
	})
	if err := c2.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	if info := c2.StoreRecovery(); info.Replayed == 0 {
		t.Fatalf("recovery replayed nothing: %+v", info)
	}
	res, err := c2.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Transactions != 0 || res.Report.Calls != 0 {
		t.Errorf("recovered store must answer for free: %+v", res.Report)
	}
	if len(res.Rows) != len(first.Rows) {
		t.Errorf("recovered rows: %d, want %d", len(res.Rows), len(first.Rows))
	}
	c2.Close()
}

// TestDurableClientCheckpointAndReopen exercises the checkpoint path
// through the client API against the real filesystem.
func TestDurableClientCheckpointAndReopen(t *testing.T) {
	base, m, w := testSetup(t, nil)
	_ = w
	dir := filepath.Join(t.TempDir(), "store")
	c1 := durableSetup(t, m, base, dir, nil)
	if _, err := c1.Query("SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 30"); err != nil {
		t.Fatal(err)
	}
	if err := c1.CheckpointStore(); err != nil {
		t.Fatal(err)
	}
	if c1.Metrics().Checkpoints != 1 {
		t.Errorf("checkpoint metric: %+v", c1.Metrics().Checkpoints)
	}
	if err := c1.SyncStore(); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	m.RegisterAccount("ckpt")
	c2 := durableSetup(t, m, base, dir, func(c *Config) {
		c.Caller = market.AccountCaller{Market: m, Key: "ckpt"}
	})
	info := c2.StoreRecovery()
	if info.SnapshotSeq == 0 || info.Replayed != 0 {
		t.Fatalf("checkpointed recovery: %+v", info)
	}
	res, err := c2.Query("SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 30")
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Transactions != 0 {
		t.Errorf("snapshot recovery must answer for free: %+v", res.Report)
	}
	c2.Close()
}

// TestCheckpointCrashSafe: a checkpoint failing partway — a torn write or
// a failed fsync — must leave the previous snapshot byte-identical and no
// temp file behind, and the log must still hold what the snapshot lacks, so
// a reopen recovers everything bought.
func TestCheckpointCrashSafe(t *testing.T) {
	base, m, _ := testSetup(t, nil)
	fs := diskfault.New()
	open := func(key string) *Client {
		m.RegisterAccount(key)
		return durableSetup(t, m, base, "/store", func(c *Config) {
			c.Caller = market.AccountCaller{Market: m, Key: key}
			c.store.FS = fs
			c.store.CheckpointEvery = -1
		})
	}
	first := "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 20"
	second := "SELECT * FROM Pollution WHERE Rank >= 40 AND Rank <= 60"
	c1 := open("ckpt-safe")
	if _, err := c1.Query(first); err != nil {
		t.Fatal(err)
	}
	if err := c1.CheckpointStore(); err != nil {
		t.Fatal(err)
	}
	const snap = "/store/snap-00000001.json"
	good, err := readAll(fs, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Query(second); err != nil {
		t.Fatal(err)
	}
	for name, hook := range map[string]func(int, *diskfault.Op) error{
		"torn write": func(_ int, op *diskfault.Op) error {
			if op.Kind == diskfault.OpWrite && len(op.Data) > 10 {
				op.Data = op.Data[:len(op.Data)/2]
				return diskfault.ErrInjected
			}
			return nil
		},
		"failed fsync": func(_ int, op *diskfault.Op) error {
			if op.Kind == diskfault.OpSync {
				return diskfault.ErrInjected
			}
			return nil
		},
	} {
		fs.SetHook(hook)
		if err := c1.CheckpointStore(); !errors.Is(err, diskfault.ErrInjected) {
			t.Fatalf("%s: failure not surfaced: %v", name, err)
		}
		fs.SetHook(nil)
		if after, err := readAll(fs, snap); err != nil || !bytes.Equal(after, good) {
			t.Fatalf("%s corrupted the previous snapshot (err %v)", name, err)
		}
		if _, err := fs.Stat("/store/snap-00000002.json.tmp"); !os.IsNotExist(err) {
			t.Errorf("%s left its temp file behind: %v", name, err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := open("ckpt-safe-reopen")
	defer c2.Close()
	for _, sql := range []string{first, second} {
		res, err := c2.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Calls != 0 {
			t.Errorf("%s: recovered store must answer for free: %+v", sql, res.Report)
		}
	}
	if err := c2.CheckpointStore(); err != nil {
		t.Fatalf("a clean checkpoint after recovery: %v", err)
	}
}

// readAll reads a diskfault file through the wal.FS surface.
func readAll(fs *diskfault.FS, path string) ([]byte, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// failWriter fails every write after the first n bytes.
type failWriter struct {
	n       int
	written int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		allowed := w.n - w.written
		if allowed < 0 {
			allowed = 0
		}
		w.written += allowed
		return allowed, errors.New("sink full")
	}
	w.written += len(p)
	return len(p), nil
}

// TestAuditDropCounted is the satellite: audit sink failures stay non-fatal
// but are counted in payless_audit_dropped_total.
func TestAuditDropCounted(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	client.SetAuditLog(&failWriter{n: 0})
	if _, err := client.Query("SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 5"); err != nil {
		t.Fatalf("audit failure must not fail the query: %v", err)
	}
	if got := client.Metrics().AuditDropped; got != 1 {
		t.Errorf("AuditDropped = %d, want 1", got)
	}
	var out strings.Builder
	client.WriteMetrics(&out)
	if !strings.Contains(out.String(), "payless_audit_dropped_total 1") {
		t.Error("prometheus output missing audit drop family")
	}
	// A healthy sink is not counted.
	var ok bytes.Buffer
	client.SetAuditLog(&ok)
	if _, err := client.Query("SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 5"); err != nil {
		t.Fatal(err)
	}
	if got := client.Metrics().AuditDropped; got != 1 {
		t.Errorf("healthy sink counted as drop: %d", got)
	}
	if ok.Len() == 0 {
		t.Error("healthy sink got no audit line")
	}
}

// TestLoadStoreBadSnapshot: wrong input fails fast with the typed
// ErrBadSnapshot, and so does a snapshot from before the magic header.
func TestLoadStoreBadSnapshot(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	for name, content := range map[string]string{
		"garbage":    "definitely not json {",
		"wrongver":   `{"magic":"payless-semstore","version":99,"tables":[]}`,
		"nomagic":    `{"version":3,"tables":[]}`,
		"othermagic": `{"magic":"some-other-format","version":3}`,
		"v1":         `{"version":1,"tables":[]}`,
		"v2":         `{"version":2,"tables":[]}`,
	} {
		if err := client.LoadStore(strings.NewReader(content)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

// TestLoadStoreAtomicityFuzz is the satellite fuzz: a valid snapshot cut at
// every byte prefix (and with single-byte corruptions) must never panic and
// never half-mutate — after any failed Load the store's Save output is
// byte-identical to before.
func TestLoadStoreAtomicityFuzz(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	if _, err := client.Query("SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 10"); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := client.SaveStore(&snap); err != nil {
		t.Fatal(err)
	}
	data := snap.Bytes()

	baseline := func() string {
		var b bytes.Buffer
		if err := client.SaveStore(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := baseline()

	tryLoad := func(label string, corrupt []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Load panicked: %v", label, r)
			}
		}()
		err := client.LoadStore(bytes.NewReader(corrupt))
		after := baseline()
		if err != nil {
			if after != before {
				t.Fatalf("%s: failed Load mutated the store", label)
			}
			return
		}
		// A corruption that still parses and validates may legitimately
		// load; the new state becomes the baseline.
		before = after
	}

	for cut := 0; cut < len(data); cut++ {
		tryLoad(fmt.Sprintf("truncate@%d", cut), data[:cut])
	}
	// Single-byte corruptions on a stride (every byte on small snapshots).
	stride := 1
	if len(data) > 4096 {
		stride = len(data) / 4096
	}
	for i := 0; i < len(data); i += stride {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x20
		tryLoad(fmt.Sprintf("flip@%d", i), corrupt)
	}
}

// TestIdleDurableStoreCostsNothing is the regression guard for the
// Record-path refactor: on a workload that records nothing (SQR off, as in
// the fan-out workload) a durable client must do exactly the work of a
// memory-only one — no WAL append, no fsync, no allocations of its own —
// so the nil-WAL branch every default client takes is free a fortiori.
// (What an fsync policy costs when records do flow is the ledger's whw_buy
// workload to measure.) Under the race detector the two allocation counts
// drift apart in either direction, so the gate runs only without it.
func TestIdleDurableStoreCostsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	env := newFanoutEnv(t, false)
	base, _ := env.replayAllocs(t, "alloc-memory")
	durable, client := env.replayAllocs(t, "alloc-durable",
		WithDurableStore(filepath.Join(t.TempDir(), "store")),
		WithStoreSync(StoreSyncOff))
	t.Logf("%v allocations a pass memory-only, %v durable", base, durable)
	if m := client.Metrics(); m.WALAppends != 0 || m.WALSyncedAppends != 0 {
		t.Fatalf("an idle durable store appended %d WAL frames and fsynced %d", m.WALAppends, m.WALSyncedAppends)
	}
	if !sameAllocs(base, durable) {
		t.Fatalf("an idle durable store changes the workload's allocations: %v memory-only, %v durable", base, durable)
	}
}
