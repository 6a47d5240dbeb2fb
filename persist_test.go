package payless

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"payless/internal/market"
)

func TestSaveLoadStoreRoundTrip(t *testing.T) {
	c1, m, w := testSetup(t, nil)
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[9])
	first, err := c1.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.Transactions == 0 {
		t.Fatal("first run should pay")
	}
	var buf bytes.Buffer
	if err := c1.SaveStore(&buf); err != nil {
		t.Fatal(err)
	}

	// A brand-new client (fresh restart on the same market account)
	// restores the store and answers the same query for free.
	m.RegisterAccount("restart")
	c3, err := Open(Config{
		Tables: c1.cfg.Tables,
		Caller: c1.cfg.Caller,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c3.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	if err := c3.LoadStore(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := c3.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Transactions != 0 || res.Report.Calls != 0 {
		t.Errorf("restored store must answer for free: %+v", res.Report)
	}
	if len(res.Rows) != len(first.Rows) {
		t.Errorf("restored rows: %d, want %d", len(res.Rows), len(first.Rows))
	}
	if c3.store.StoredRowCount("Weather") != c1.store.StoredRowCount("Weather") {
		t.Errorf("stored rows differ: %d vs %d", c3.store.StoredRowCount("Weather"), c1.store.StoredRowCount("Weather"))
	}
}

// TestSaveLoadStoreFile pins the one persistence format: an
// export is byte-for-byte the snapshot a durable store's checkpoint writes,
// and importing it into a durable client makes it durable, so it survives
// that client's restart.
func TestSaveLoadStoreFile(t *testing.T) {
	base, m, _ := testSetup(t, nil)
	sql := "SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 50"
	src := filepath.Join(t.TempDir(), "src")
	c1 := durableSetup(t, m, base, src, nil)
	if _, err := c1.Query(sql); err != nil {
		t.Fatal(err)
	}
	if err := c1.CheckpointStore(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(src, "snap-00000001.json"))
	if err != nil {
		t.Fatal(err)
	}
	var export bytes.Buffer
	if err := c1.SaveStore(&export); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(export.Bytes(), snap) {
		t.Fatalf("export differs from the checkpoint snapshot:\n%s\nvs\n%s", export.Bytes(), snap)
	}
	c1.Close()

	dst := filepath.Join(t.TempDir(), "dst")
	c2 := durableSetup(t, m, base, dst, nil)
	if err := c2.LoadStore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	m.RegisterAccount("import")
	c3 := durableSetup(t, m, base, dst, func(c *Config) {
		c.Caller = market.AccountCaller{Market: m, Key: "import"}
	})
	defer c3.Close()
	if got, want := c3.store.StoredRowCount("Pollution"), c1.store.StoredRowCount("Pollution"); got != want {
		t.Fatalf("imported rows after restart: %d, want the source's %d", got, want)
	}
	res, err := c3.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Calls != 0 {
		t.Errorf("an import must survive a restart and answer for free: %+v", res.Report)
	}
}

func TestLoadStoreErrors(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	if err := client.LoadStore(strings.NewReader("not json")); err == nil {
		t.Error("bad JSON should error")
	}
	if err := client.LoadStore(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("unknown version should error")
	}
	if err := client.LoadStore(strings.NewReader(`{"magic":"payless-semstore","version":3,"tables":[{"table":"Ghost"}]}`)); err == nil {
		t.Error("unknown table should error")
	}
	if err := client.LoadStore(strings.NewReader(
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Weather","kinds":["int"]}]}`)); err == nil {
		t.Error("column count mismatch should error")
	}
	if err := client.LoadStore(strings.NewReader(
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Weather","kinds":["int","int","int","float"]}]}`)); err == nil {
		t.Error("kind mismatch should error")
	}
	if err := client.LoadStore(strings.NewReader(
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Weather","kinds":["string","int","int","banana"]}]}`)); err == nil {
		t.Error("unknown kind should error")
	}
	if err := client.LoadStore(strings.NewReader(
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Weather","kinds":["string","int","int","float"],"rows":[["a","1"]]}]}`)); err == nil {
		t.Error("row width mismatch should error")
	}
	if err := client.LoadStore(strings.NewReader(
		`{"magic":"payless-semstore","version":3,"tables":[{"table":"Weather","kinds":["string","int","int","float"],"rows":[["US","x","1","1.0"]]}]}`)); err == nil {
		t.Error("bad cell should error")
	}
}
