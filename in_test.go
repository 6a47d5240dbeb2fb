package payless

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestInDecomposesIntoOneCallPerValue pins the paper's §1 example: a query
// asking Country = 'Canada' OR Country = 'Germany' "has to decompose into
// two queries, one asks for Country = 'Canada' and another asks for
// Country = 'Germany'".
func TestInDecomposesIntoOneCallPerValue(t *testing.T) {
	client, _, w := testSetup(t, nil)
	lo, hi := w.Dates[0], w.Dates[4]
	sql := fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country IN ('Country01', 'Country02') AND Date >= %d AND Date <= %d",
		lo, hi)
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Calls != 2 {
		t.Errorf("IN over two countries must issue 2 calls, issued %d", res.Report.Calls)
	}
	want := 0
	for _, r := range w.WeatherRows {
		if (r[0].Str() == "Country01" || r[0].Str() == "Country02") && r[2].Int64() >= lo && r[2].Int64() <= hi {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Errorf("rows: %d, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if row[0] != "Country01" && row[0] != "Country02" {
			t.Fatalf("row outside IN set: %v", row)
		}
	}
}

func TestOrGroupEquivalentToIn(t *testing.T) {
	c1, _, w := testSetup(t, nil)
	c2, _, _ := testSetup(t, nil)
	lo, hi := w.Dates[0], w.Dates[4]
	inSQL := fmt.Sprintf(
		"SELECT COUNT(*) FROM Weather WHERE Country IN ('Country01', 'Country02') AND Date >= %d AND Date <= %d", lo, hi)
	orSQL := fmt.Sprintf(
		"SELECT COUNT(*) FROM Weather WHERE (Country = 'Country01' OR Country = 'Country02') AND Date >= %d AND Date <= %d", lo, hi)
	r1, err := c1.Query(inSQL)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Query(orSQL)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0] != r2.Rows[0][0] {
		t.Errorf("IN (%s) and OR (%s) must agree", r1.Rows[0][0], r2.Rows[0][0])
	}
	if r1.Report.Transactions != r2.Report.Transactions {
		t.Errorf("IN and OR should cost the same: %d vs %d",
			r1.Report.Transactions, r2.Report.Transactions)
	}
}

func TestInReuseAcrossValues(t *testing.T) {
	client, _, w := testSetup(t, nil)
	lo, hi := w.Dates[0], w.Dates[4]
	// First buy Country01's slice.
	if _, err := client.Query(fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country = 'Country01' AND Date >= %d AND Date <= %d", lo, hi)); err != nil {
		t.Fatal(err)
	}
	// The IN query then pays only for Country02's slice.
	res, err := client.Query(fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country IN ('Country01', 'Country02') AND Date >= %d AND Date <= %d", lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Calls != 1 {
		t.Errorf("covered IN value must not be refetched: %d calls", res.Report.Calls)
	}
}

func TestInOutOfDomainValueMatchesNothing(t *testing.T) {
	client, _, w := testSetup(t, nil)
	res, err := client.Query(fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country IN ('Atlantis') AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[2]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || res.Report.Calls != 0 {
		t.Errorf("out-of-domain IN must be free and empty: rows=%d calls=%d", len(res.Rows), res.Report.Calls)
	}
}

func TestInOnNumericAttr(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	res, err := client.Query("SELECT COUNT(*) FROM Pollution WHERE Rank IN (1, 2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := client.Query("SELECT COUNT(*) FROM Pollution WHERE Rank >= 1 AND Rank <= 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != want.Rows[0][0] {
		t.Errorf("IN(1,2,3) = %s, range [1,3] = %s", res.Rows[0][0], want.Rows[0][0])
	}
}

func TestInResidualFallbackForOutputAttr(t *testing.T) {
	// Temperature is output-only: IN on it cannot be pushed and is applied
	// locally after the fetch.
	client, _, w := testSetup(t, nil)
	res, err := client.Query(fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d AND Temperature IN (999.0)",
		w.Dates[0], w.Dates[1]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("no temperature equals the sentinel: %d rows", len(res.Rows))
	}
	if res.Report.Calls == 0 {
		t.Error("the pushed part must still be fetched")
	}
}

func TestInHugeListFallsBackToResidual(t *testing.T) {
	// 100 ranks exceed the disjunct cap; the query still answers correctly
	// by fetching the pushed region and filtering locally.
	client, _, _ := testSetup(t, nil)
	in := "SELECT COUNT(*) FROM Pollution WHERE Rank IN ("
	for i := 1; i <= 100; i++ {
		if i > 1 {
			in += ", "
		}
		in += fmt.Sprintf("%d", i)
	}
	in += ")"
	res, err := client.Query(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := client.Query("SELECT COUNT(*) FROM Pollution WHERE Rank >= 1 AND Rank <= 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != want.Rows[0][0] {
		t.Errorf("huge IN = %s, range = %s", res.Rows[0][0], want.Rows[0][0])
	}
}

// TestBindJoinUnderCategoricalInList: a bind join into a relation whose IN
// list on a categorical attribute splits its access region groups its
// bindings within each access box, since the hull of the boxes spans the
// list's values and no call can. The statement used to buy Station and then
// fail; its rows now equal the answer computed from the full data.
func TestBindJoinUnderCategoricalInList(t *testing.T) {
	client, _, w := testSetup(t, nil)
	sch := w.Station.Schema
	country, sidCol, city := sch.IndexOf("Country"), sch.IndexOf("StationID"), sch.IndexOf("City")
	cities := map[int64]string{}
	var sid int64
	for _, r := range w.StationRows {
		cities[r[sidCol].Int64()] = r[city].Str()
		if sid == 0 && r[country].Str() == "Country01" {
			sid = r[sidCol].Int64()
		}
	}
	sql := fmt.Sprintf("SELECT City, COUNT(*) FROM Weather, Station WHERE Weather.StationID = Station.StationID "+
		"AND Weather.StationID = %d AND Weather.Country IN ('Country01', 'United States') GROUP BY City", sid)
	ex, err := client.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Plan, "Weather(bind") {
		t.Fatalf("plan %s binds no Weather: the test no longer reaches the bind join", ex.Plan)
	}
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	wsch := w.Weather.Schema
	for _, r := range w.WeatherRows {
		c := r[wsch.IndexOf("Country")].Str()
		if r[wsch.IndexOf("StationID")].Int64() == sid && (c == "Country01" || c == "United States") {
			counts[cities[sid]]++
		}
	}
	var want [][]string
	for c, n := range counts {
		want = append(want, []string{c, strconv.Itoa(n)})
	}
	if len(want) == 0 || canon(res.Rows) != canon(want) {
		t.Errorf("rows %v, the full data says %v", res.Rows, want)
	}
}
