package payless

import (
	"testing"

	"payless/internal/value"
)

func TestPrepareAndQuery(t *testing.T) {
	client, _, w := testSetup(t, nil)
	stmt, err := client.Prepare(
		"SELECT * FROM Weather WHERE Country = ? AND Date >= ? AND Date <= ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 3 {
		t.Fatalf("params: %d", stmt.NumParams())
	}
	res, err := stmt.Query("United States", w.Dates[0], w.Dates[4])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Second execution with the same parameters is free (semantic store).
	res2, err := stmt.Query("United States", w.Dates[0], w.Dates[4])
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.Transactions != 0 {
		t.Errorf("repeat should be free: %+v", res2.Report)
	}
	// Different parameters hit the market again.
	res3, err := stmt.Query("Country01", w.Dates[0], w.Dates[4])
	if err != nil {
		t.Fatal(err)
	}
	if res3.Report.Transactions == 0 {
		t.Error("new parameters should pay")
	}
}

func TestPrepareArgumentTypes(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	stmt, err := client.Prepare("SELECT COUNT(*) FROM Pollution WHERE Rank >= ? AND Rank <= ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]any{
		{int(1), int64(50)},
		{int32(1), int64(50)},
		{value.NewInt(1), value.NewInt(50)},
	} {
		if _, err := stmt.Query(args...); err != nil {
			t.Errorf("args %v: %v", args, err)
		}
	}
	if _, err := stmt.Query(1); err == nil {
		t.Error("wrong arity should error")
	}
	if _, err := stmt.Query(1, struct{}{}); err == nil {
		t.Error("unsupported type should error")
	}
	if _, err := stmt.Explain(1, 50); err != nil {
		t.Errorf("Explain: %v", err)
	}
}

func TestPrepareQuoteSafety(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	stmt, err := client.Prepare("SELECT * FROM Pollution WHERE ZipCode = ?")
	if err != nil {
		t.Fatal(err)
	}
	// A hostile string with quotes must stay a single literal: the query
	// parses (no injection) and simply matches nothing.
	res, err := stmt.Query("' OR Rank >= 1 AND ZipCode = '10001")
	if err != nil {
		t.Fatalf("quoted argument broke the statement: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("hostile literal must not match: %d rows", len(res.Rows))
	}
}

func TestPreparePlaceholderInsideLiteral(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	stmt, err := client.Prepare("SELECT * FROM Pollution WHERE ZipCode = 'what?' AND Rank >= ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Errorf("? inside a literal must not count: %d", stmt.NumParams())
	}
	// Escaped quotes inside literals are preserved.
	stmt2, err := client.Prepare("SELECT * FROM Pollution WHERE ZipCode = 'it''s?ok' AND Rank >= ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt2.NumParams() != 1 {
		t.Errorf("escaped-quote literal: %d params", stmt2.NumParams())
	}
	if _, err := client.Prepare("SELECT * FROM T WHERE a = 'oops"); err == nil {
		t.Error("unterminated literal should error at Prepare")
	}
}

// TestStmtPlansOncePerTemplate asserts the prepared-statement fast path: N
// executions of one template shape must run the optimizer exactly once. The
// template's data is bought up front so executions themselves change nothing
// (no purchase, no epoch bump), and every post-warmup execution re-binds the
// cached plan — zero optimize spans in its trace.
func TestStmtPlansOncePerTemplate(t *testing.T) {
	client, _, _ := testSetup(t, func(c *Config) {
		c.Tracer = &CollectTracer{}
	})
	// Cover the whole table first: the statement executions below are then
	// pure reads and the cached plan stays valid across all of them.
	if _, err := client.Query("SELECT * FROM Weather WHERE Date >= 20140601 AND Date <= 20140630"); err != nil {
		t.Fatal(err)
	}
	stmt, err := client.Prepare("SELECT * FROM Weather WHERE Date >= ? AND Date <= ?")
	if err != nil {
		t.Fatal(err)
	}
	optimizeSpans := 0
	for i := 0; i < 10; i++ {
		res, err := stmt.Query(20140601+i, 20140605+i)
		if err != nil {
			t.Fatalf("execution %d: %v", i, err)
		}
		if res.Trace == nil {
			t.Fatalf("execution %d: no trace", i)
		}
		for _, sp := range res.Trace.Spans {
			if sp.Name == "optimize" {
				optimizeSpans++
			}
		}
		if i > 0 && res.Planner != PlannerCached {
			t.Errorf("execution %d planned via %q, want %q", i, res.Planner, PlannerCached)
		}
		if res.Report.Transactions != 0 {
			t.Errorf("execution %d billed %d transactions on covered data", i, res.Report.Transactions)
		}
	}
	if optimizeSpans != 1 {
		t.Errorf("%d optimize spans across 10 executions, want exactly 1", optimizeSpans)
	}
}

// TestStmtExplainUsesStatementCache: on a client without a client-wide plan
// cache, Explain reports the plan Query runs — the statement's own cache's.
func TestStmtExplainUsesStatementCache(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	stmt, err := client.Prepare("SELECT COUNT(*) FROM Pollution WHERE Rank >= ? AND Rank <= ?")
	if err != nil {
		t.Fatal(err)
	}
	var planners []string
	for i := 0; i < 3; i++ {
		res, err := stmt.Query(1, 50)
		if err != nil {
			t.Fatal(err)
		}
		planners = append(planners, res.Planner)
	}
	ex, err := stmt.Explain(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if planners[2] != PlannerCached || ex.Planner != planners[2] {
		t.Errorf("Query planners %v, Explain planner %q", planners, ex.Planner)
	}
}
