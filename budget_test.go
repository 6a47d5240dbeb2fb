package payless

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestPerQueryBudgetBlocksBeforeSpending(t *testing.T) {
	client, m, w := testSetup(t, func(c *Config) { c.Budget = Budget{PerQuery: 1} })
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[len(w.Dates)-1])
	_, err := client.Query(sql)
	if !errors.Is(err, ErrOverBudget) {
		t.Fatalf("want ErrOverBudget, got %v", err)
	}
	meter, _ := m.MeterOf("acct")
	if meter.Calls != 0 {
		t.Error("budget must block before any market call")
	}
	// A cheap query still runs.
	cheap := fmt.Sprintf("SELECT COUNT(ZipCode) FROM Pollution WHERE Rank >= 1 AND Rank <= 2")
	if _, err := client.Query(cheap); err != nil {
		t.Fatalf("cheap query blocked: %v", err)
	}
}

func TestTotalBudgetAccumulates(t *testing.T) {
	client, _, w := testSetup(t, func(c *Config) { c.Budget = Budget{Total: 12} })
	q := func(i int) string {
		return fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
			w.Dates[i], w.Dates[i+1])
	}
	ranOut := false
	for i := 0; i < 20; i += 2 {
		_, err := client.Query(q(i))
		if errors.Is(err, ErrOverBudget) {
			ranOut = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !ranOut {
		t.Fatal("total budget never triggered")
	}
	if spent := client.TotalSpend().Transactions; spent > 12 {
		t.Errorf("spent %d beyond total budget 12", spent)
	}
}

func TestZeroBudgetIsUnlimited(t *testing.T) {
	client, _, w := testSetup(t, nil)
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[10])
	if _, err := client.Query(sql); err != nil {
		t.Fatalf("unlimited budget blocked a query: %v", err)
	}
}

func TestExplainVerbose(t *testing.T) {
	client, _, w := testSetup(t, nil)
	sql := fmt.Sprintf(
		"SELECT Temperature FROM Station, Weather "+
			"WHERE City = 'Seattle' AND Station.Country = Weather.Country = 'United States' "+
			"AND Date >= %d AND Date <= %d AND Station.StationID = Weather.StationID",
		w.Dates[0], w.Dates[10])
	res, err := client.Explain(sql, Verbose())
	if err != nil {
		t.Fatal(err)
	}
	out := res.PlanDetail
	for _, want := range []string{"plan:", "Station", "Weather", "join"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "bind join") && !strings.Contains(out, "market scan") {
		t.Errorf("explain should name access paths:\n%s", out)
	}
	if _, err := client.Explain("garbage", Verbose()); err == nil {
		t.Error("parse error expected")
	}
	if _, err := client.Explain("SELECT * FROM Ghost", Verbose()); err == nil {
		t.Error("bind error expected")
	}
}

func TestExplainVerboseZeroPriceAndLocal(t *testing.T) {
	client, _, w := testSetup(t, nil)
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])
	if _, err := client.Query(sql); err != nil {
		t.Fatal(err)
	}
	res, err := client.Explain(sql, Verbose())
	if err != nil {
		t.Fatal(err)
	}
	if out := res.PlanDetail; !strings.Contains(out, "semantic store scan") {
		t.Errorf("covered relation should show as store scan:\n%s", out)
	}
	res2, err := client.Explain("SELECT * FROM ZipMap", Verbose())
	if err != nil {
		t.Fatal(err)
	}
	if out2 := res2.PlanDetail; !strings.Contains(out2, "local table scan") {
		t.Errorf("local table should show as local scan:\n%s", out2)
	}
}
