package payless

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/value"
)

// TestUnsatisfiablePredicatesMatchNothing: constant predicates on one
// attribute that no value satisfies together — two different points, a point
// outside the range, an empty range, a bound past the int64 edge, a value
// outside a local table's domain — return no rows and bill nothing, and
// satisfiable ones on one attribute return exactly the full-data answer, on
// market and local tables alike. Each statement runs as a statement-cache
// miss (on a fresh client) and as a hit (after a statement of its skeleton
// with other literals), since the two bind the literals on different paths.
func TestUnsatisfiablePredicatesMatchNothing(t *testing.T) {
	_, _, w := testSetup(t, nil)
	z := func(i int) string { return w.ZipMapRows[i][0].Str() }
	date := func(pred func(int64) bool) func(value.Row) bool {
		return func(r value.Row) bool { return pred(r[2].Int64()) }
	}
	zip := func(zips ...string) func(value.Row) bool {
		return func(r value.Row) bool {
			for _, z := range zips {
				if r[0].Str() == z {
					return true
				}
			}
			return false
		}
	}
	const weather = "SELECT * FROM Weather WHERE "
	const zipMap = "SELECT * FROM ZipMap WHERE "
	for _, c := range []struct {
		sql, warm string
		want      func(value.Row) bool // nil: no row
	}{
		{sql: weather + "Weather.Date = 20140601 AND Weather.Date = 20140602",
			warm: weather + "Weather.Date = 20140603 AND Weather.Date = 20140603"},
		{sql: weather + "Date = 20140601 AND Date >= 20140602",
			warm: weather + "Date = 20140605 AND Date >= 20140602"},
		{sql: weather + "Date >= 20140602 AND Date = 20140601",
			warm: weather + "Date >= 20140602 AND Date = 20140604"},
		{sql: weather + "Date >= 20140605 AND Date <= 20140601",
			warm: weather + "Date >= 20140601 AND Date <= 20140605"},
		{sql: weather + "Date > 20140601 AND Date < 20140602",
			warm: weather + "Date > 20140601 AND Date < 20140604"},
		{sql: weather + "Date > 9223372036854775807",
			warm: weather + "Date > 20140628"},
		{sql: weather + "Date < -9223372036854775808",
			warm: weather + "Date < 20140603"},
		{sql: weather + "Date = 20140601 AND Date = 20140601",
			warm: weather + "Date = 20140602 AND Date = 20140602",
			want: date(func(d int64) bool { return d == 20140601 })},
		{sql: weather + "Date = 20140603 AND Date <= 20140603 AND Date >= 20140601",
			warm: weather + "Date = 20140604 AND Date <= 20140605 AND Date >= 20140601",
			want: date(func(d int64) bool { return d == 20140603 })},
		{sql: zipMap + "ZipCode = 'nowhere'",
			warm: zipMap + fmt.Sprintf("ZipCode = '%s'", z(0))},
		{sql: zipMap + fmt.Sprintf("ZipCode = '%s' AND ZipCode = '%s'", z(0), z(1)),
			warm: zipMap + fmt.Sprintf("ZipCode = '%s' AND ZipCode = '%s'", z(2), z(2))},
		{sql: zipMap + fmt.Sprintf("ZipCode IN ('nowhere', '%s')", z(1)),
			warm: zipMap + fmt.Sprintf("ZipCode IN ('%s', '%s')", z(0), z(2)),
			want: zip(z(1))},
		{sql: zipMap + fmt.Sprintf("ZipCode IN ('%s', 'nowhere', '%s')", z(1), z(3)),
			warm: zipMap + fmt.Sprintf("ZipCode IN ('%s', '%s', '%s')", z(0), z(2), z(4)),
			want: zip(z(1), z(3))},
	} {
		rows := w.WeatherRows
		if strings.HasPrefix(c.sql, zipMap) {
			rows = w.ZipMapRows
		}
		var want [][]string
		for _, r := range rows {
			if c.want != nil && c.want(r) {
				cells := make([]string, len(r))
				for i, v := range r {
					cells[i] = v.String()
				}
				want = append(want, cells)
			}
		}
		for _, hit := range []bool{false, true} {
			client, _, _ := testSetup(t, func(c *Config) { c.PlanCacheSize = 64 })
			if hit {
				if _, err := client.Query(c.warm); err != nil {
					t.Fatalf("%s: %v", c.warm, err)
				}
			}
			if cached := cachedStatement(client.plans, c.sql) != nil; cached != hit {
				t.Fatalf("%s (hit %v): statement cached %v", c.sql, hit, cached)
			}
			res, err := client.Query(c.sql)
			if err != nil {
				t.Errorf("%s (hit %v): %v", c.sql, hit, err)
				continue
			}
			if got := canon(res.Rows); got != canon(want) {
				t.Errorf("%s (hit %v): %d rows, the full data holds %d", c.sql, hit, len(res.Rows), len(want))
			}
			if c.want == nil && (res.Report.Transactions != 0 || res.Report.Calls != 0) {
				t.Errorf("%s (hit %v): billed %d tx over %d calls for no rows", c.sql, hit, res.Report.Transactions, res.Report.Calls)
			}
		}
	}
}

// TestLiteralOfWrongTypeIsABindError: a constant condition whose literal
// cannot compare with its column — a string against a number column or a
// number against a string column, IN values included — fails at bind and
// bills nothing, where it used to leave the condition as a residual and buy
// the whole table. Each statement runs as a statement-cache miss and then
// with another literal of its kinds, the hit path had the first been
// cached; a failed statement caches nothing, so a prepared statement checks
// the hit path, its plan slot filled by a first execution.
func TestLiteralOfWrongTypeIsABindError(t *testing.T) {
	client, m, _ := testSetup(t, func(c *Config) { c.PlanCacheSize = 64 })
	spent := func() int64 {
		meter, _ := m.MeterOf("acct")
		return meter.Transactions
	}
	check := func(sql string, err error, before int64) {
		t.Helper()
		if !errors.Is(err, ErrBind) {
			t.Errorf("%s: %v, want a bind error", sql, err)
		}
		if tx := spent() - before; tx != 0 {
			t.Errorf("%s: billed %d transactions", sql, tx)
		}
	}
	for _, c := range [][2]string{
		{"SELECT COUNT(*) FROM Weather WHERE Date = 'x'", "SELECT COUNT(*) FROM Weather WHERE Date = 'y'"},
		{"SELECT COUNT(*) FROM Weather WHERE Date <= 'x'", "SELECT COUNT(*) FROM Weather WHERE Date <= 'y'"},
		{"SELECT COUNT(*) FROM Weather WHERE Date <= '20140602'", "SELECT COUNT(*) FROM Weather WHERE Date <= '20140603'"},
		{"SELECT COUNT(*) FROM Weather WHERE Country >= 5", "SELECT COUNT(*) FROM Weather WHERE Country >= 6"},
		{"SELECT COUNT(*) FROM Weather WHERE Country = 5", "SELECT COUNT(*) FROM Weather WHERE Country = 6"},
		{"SELECT COUNT(*) FROM Pollution WHERE Rank = 'x'", "SELECT COUNT(*) FROM Pollution WHERE Rank = 'y'"},
		{"SELECT COUNT(*) FROM Pollution WHERE Rank IN (1, 'x')", "SELECT COUNT(*) FROM Pollution WHERE Rank IN (2, 'y')"},
		{"SELECT COUNT(*) FROM Pollution WHERE ZipCode IN ('a', 1.5)", "SELECT COUNT(*) FROM Pollution WHERE ZipCode IN ('b', 2.5)"},
	} {
		for _, sql := range c {
			before := spent()
			_, err := client.Query(sql)
			check(sql, err, before)
			if cachedStatement(client.plans, sql) != nil {
				t.Errorf("%s: a statement that failed to bind was cached", sql)
			}
		}
	}
	// Numbers of either kind compare with each other, strings with strings.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM Weather WHERE Date <= 20140601.5 AND Temperature > 1",
		"SELECT COUNT(*) FROM Weather WHERE Country >= 'Country01'",
	} {
		if _, err := client.Query(sql); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
	stmt, err := client.Prepare("SELECT COUNT(*) FROM Weather WHERE Date <= ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(20140602); err != nil {
		t.Fatal(err)
	}
	before := spent()
	_, err = stmt.Query("20140602")
	check("Date <= ? given \"20140602\"", err, before)
}

// TestHavingLiteralOfWrongTypeIsABindError: a HAVING conjunct whose literal
// cannot compare with its output column — a string against COUNT, a number
// against a group column — fails at bind and bills nothing, as a miss, as a
// hit on a cached shape and as a prepared statement's argument, where it
// used to compare by kind order and keep every group or none. Legal
// conjuncts keep exactly the groups they name.
func TestHavingLiteralOfWrongTypeIsABindError(t *testing.T) {
	client, m, _ := testSetup(t, func(c *Config) { c.PlanCacheSize = 64 })
	spent := func() int64 {
		meter, _ := m.MeterOf("acct")
		return meter.Transactions
	}
	const groups = "SELECT Country, COUNT(*) AS n FROM Weather WHERE Date = 20140601 GROUP BY Country"
	all, err := client.Query(groups)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		having string
		keep   func(country string, n int64) bool // nil: a bind error
	}{
		{having: "n < 'x'"},
		{having: "n > 'x'"},
		{having: "Country > 5"},
		{having: "n > 41", keep: func(_ string, n int64) bool { return n > 41 }},
		{having: "Country > 'Country02'", keep: func(c string, _ int64) bool { return c > "Country02" }},
	} {
		sql := groups + " HAVING " + c.having
		// A legal statement's second run is a statement-cache hit; a failed
		// one caches nothing, and the hit path is checked below.
		for run := 0; run < 2; run++ {
			before := spent()
			res, err := client.Query(sql)
			if c.keep == nil {
				if !errors.Is(err, ErrBind) {
					t.Errorf("%s: %v, want a bind error", sql, err)
				}
				if tx := spent() - before; tx != 0 {
					t.Errorf("%s: billed %d transactions", sql, tx)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			var want int
			for _, row := range all.Rows {
				n, err := strconv.ParseInt(row[1], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				if c.keep(row[0], n) {
					want++
				}
			}
			if len(res.Rows) != want || want == 0 || want == len(all.Rows) {
				t.Errorf("%s: %d of %d groups, want %d (neither none nor all)", sql, len(res.Rows), len(all.Rows), want)
			}
		}
	}
	// A cached shape binds a wrong-typed literal through its entry.
	if _, err := client.Query(groups + " HAVING n > 3"); err != nil {
		t.Fatal(err)
	}
	before := spent()
	if _, err := client.Query(groups + " HAVING n > 'y'"); !errors.Is(err, ErrBind) || spent() != before {
		t.Errorf("hit with n > 'y': %v, billed %d", err, spent()-before)
	}
	stmt, err := client.Prepare(groups + " HAVING n > ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(1); err != nil {
		t.Fatal(err)
	}
	before = spent()
	if _, err := stmt.Query("x"); !errors.Is(err, ErrBind) || spent() != before {
		t.Errorf("HAVING n > ? given \"x\": %v, billed %d", err, spent()-before)
	}
}

// TestBoundAttributeOverItsWholeDomain: a range that covers all of a Bound
// attribute's domain (K >= 0 with K in [0, 9]) still binds it, so the call
// must carry it: the statement returns every row and bills what a call with
// K in [0,9] bills, and a narrower range (K >= 1) its own rows at its own
// price. A call that left the full dimension out was refused by the market
// ("must be bound in every call").
func TestBoundAttributeOverItsWholeDomain(t *testing.T) {
	locked := &catalog.Table{
		Name:   "Locked",
		Schema: value.Schema{{Name: "K", Type: value.Int}, {Name: "V", Type: value.Int}},
		Attrs: []catalog.Attribute{
			{Name: "K", Type: value.Int, Binding: catalog.Bound, Class: catalog.NumericAttr, Min: 0, Max: 9},
			{Name: "V", Type: value.Int, Binding: catalog.Output},
		},
	}
	var rows []value.Row
	for i := int64(0); i < 20; i++ {
		rows = append(rows, value.Row{value.NewInt(i % 10), value.NewInt(i)})
	}
	m := market.New()
	ds, err := m.AddDataset("D", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTable(locked, rows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql    string
		lo, hi int64
	}{
		{"SELECT * FROM Locked WHERE K >= 0", 0, 9},
		{"SELECT * FROM Locked WHERE K >= 1", 1, 9},
	} {
		ref := "ref" + strconv.FormatInt(c.lo, 10)
		m.RegisterAccount(ref)
		want, err := m.Execute(ref, catalog.AccessQuery{Dataset: "D", Table: "Locked",
			Preds: []catalog.Pred{{Attr: "K", Lo: catalog.IntPtr(c.lo), Hi: catalog.IntPtr(c.hi)}}})
		if err != nil {
			t.Fatal(err)
		}
		key := "k" + strconv.FormatInt(c.lo, 10)
		m.RegisterAccount(key)
		client, err := Open(Config{Tables: m.ExportCatalog(), Caller: market.AccountCaller{Market: m, Key: key}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if res.Report.Transactions != want.Transactions {
			t.Errorf("%s: billed %d transactions, a call with K in [%d,%d] bills %d", c.sql, res.Report.Transactions, c.lo, c.hi, want.Transactions)
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, strings.Join(r, ","))
		}
		var exp []string
		for _, r := range rows {
			if k := r[0].Int64(); k >= c.lo && k <= c.hi {
				exp = append(exp, r[0].String()+","+r[1].String())
			}
		}
		slices.Sort(got)
		slices.Sort(exp)
		if !slices.Equal(got, exp) {
			t.Errorf("%s: rows %v, want %v", c.sql, got, exp)
		}
	}
}
