package payless

import (
	"fmt"
	"strings"
	"testing"

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
