package payless

import (
	"fmt"
	"strings"
	"testing"
)

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

// TestExplainStepsIndependentOfPlanner: a plan renders the same steps
// whether the DP just made it or the plan cache handed it back.
func TestExplainStepsIndependentOfPlanner(t *testing.T) {
	client, _, w := testSetup(t, WithPlanCache(16))
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])
	var steps [2]string
	for i, want := range []string{"dp", "cached"} {
		res, err := client.Explain(sql, Verbose())
		if err != nil {
			t.Fatal(err)
		}
		if res.Planner != want {
			t.Fatalf("explain %d: planner %q, want %q", i+1, res.Planner, want)
		}
		for _, line := range strings.SplitAfter(res.PlanDetail, "\n") {
			if !strings.HasPrefix(line, "plan:") && !strings.HasPrefix(line, " planner=") {
				steps[i] += line
			}
		}
	}
	if !strings.Contains(steps[0], "market scan") || steps[0] != steps[1] {
		t.Errorf("step lines differ by planner:\ndp:\n%scached:\n%s", steps[0], steps[1])
	}
}
