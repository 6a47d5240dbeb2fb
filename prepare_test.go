package payless

import (
	"fmt"
	"math"
	"testing"

	"payless/internal/sqlparse"
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
	want, err := stmt.Query(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]any{
		{int(1), int64(50)},
		{int32(1), int64(50)},
		{value.NewInt(1), value.NewInt(50)},
		{1.0, 50.0},
		{0.5, float32(50.5)},
		{value.NewFloat(1), value.NewFloat(50)},
	} {
		res, err := stmt.Query(args...)
		if err != nil {
			t.Errorf("args %v: %v", args, err)
		} else if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("args %v: rows %v, want %v", args, res.Rows, want.Rows)
		}
	}
	// Floats whose %g rendering has an exponent the lexer cannot read.
	for _, args := range [][]any{{1.0, 1e6}, {float32(1), float32(2e7)}, {value.NewFloat(1e-5), value.NewFloat(1e6)}} {
		if _, err := stmt.Query(args...); err != nil {
			t.Errorf("args %v: %v", args, err)
		}
	}
	for _, bad := range []any{math.NaN(), math.Inf(1), float32(math.Inf(-1)), value.NewFloat(math.NaN())} {
		if _, err := stmt.Query(1, bad); err == nil {
			t.Errorf("argument %v: want an argument error", bad)
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
	// A ? or a quote inside a -- comment is comment text, as the lexer
	// reads it.
	for _, tmpl := range []string{
		"SELECT COUNT(*) FROM Pollution -- rank?\nWHERE Rank >= ? AND Rank <= ?",
		"SELECT COUNT(*) FROM Pollution -- it's a rank?\nWHERE Rank >= ? AND Rank <= ? -- the end?",
	} {
		stmt, err := client.Prepare(tmpl)
		if err != nil {
			t.Fatalf("%q: %v", tmpl, err)
		}
		if stmt.NumParams() != 2 {
			t.Fatalf("%q: %d parameters, want 2", tmpl, stmt.NumParams())
		}
		if _, err := stmt.Query(1, 50); err != nil {
			t.Errorf("%q: %v", tmpl, err)
		}
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

// FuzzPrepareArgs: every finite float64, every int64 and every string a
// statement is given renders to a literal that lexes and parses back to the
// identical value of the same kind; a non-finite float is an argument error.
func FuzzPrepareArgs(f *testing.F) {
	f.Add(int64(0), 0.0, "")
	f.Add(int64(-1), 1e6, "it's")
	f.Add(int64(math.MinInt64), -1e-5, "-- ? ''")
	f.Add(int64(math.MaxInt64), math.Copysign(0, -1), "\n'")
	f.Add(int64(20140601), 5e-324, "United States")
	f.Add(int64(7), math.MaxFloat64, "\x00\xff")
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string) {
		for _, arg := range []any{i, fl, s} {
			want, ok := value.NewInt(i), true
			switch arg.(type) {
			case float64:
				want = value.NewFloat(fl)
				ok = !math.IsNaN(fl) && !math.IsInf(fl, 0)
			case string:
				want = value.NewString(s)
			}
			lit, err := renderArg(arg)
			if !ok {
				if err == nil {
					t.Fatalf("%v rendered as %q, want an argument error", arg, lit)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%#v: %v", arg, err)
			}
			q, err := sqlparse.Parse("SELECT * FROM T WHERE a = " + lit)
			if err != nil {
				t.Fatalf("%#v rendered as %q: %v", arg, lit, err)
			}
			if got := *q.Where[0].RightVal; got != want {
				t.Fatalf("%#v rendered as %q parses to %v (%v), want %v (%v)", arg, lit, got, got.K, want, want.K)
			}
		}
	})
}
