package payless

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"payless/internal/core"
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
// (no purchase, no statistics move), and every post-warmup execution re-binds the
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

// writeArg writes a statement argument out as the SQL literal it stands
// for, so a test can run the statement a prepared one instantiates.
func writeArg(arg any) string {
	switch v := arg.(type) {
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		s := strconv.FormatFloat(v, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	case value.Value:
		switch v.K {
		case value.Int:
			return writeArg(v.Int64())
		case value.Float:
			return writeArg(v.Float64())
		case value.String:
			return writeArg(v.Str())
		}
	}
	panic(fmt.Sprintf("writeArg: %T", arg))
}

// writeOut substitutes each `?` of a template free of quoted `?`s with its
// argument written out.
func writeOut(tmpl string, args []any) string {
	var b strings.Builder
	for i, seg := range strings.Split(tmpl, "?") {
		if i > 0 {
			b.WriteString(writeArg(args[i-1]))
		}
		b.WriteString(seg)
	}
	return b.String()
}

// TestStmtBillPinned pins the total bill of a seeded sequence of argument
// tuples run through two prepared statements on one client, and checks each
// result's rows against a client without a plan cache running the statement
// written out. The arguments mix Int, integral and non-integral Float
// values of several Go types, values outside the attribute's domain and
// empty ranges, so one statement's plan slot sees every argument kind.
func TestStmtBillPinned(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	ref, _, _ := testSetup(t, nil)
	type slot struct{ lo, hi int64 }
	stmts := []struct {
		sql   string
		slots []slot
	}{
		{"SELECT COUNT(*), MIN(Temperature), MAX(Temperature) FROM Weather WHERE Date >= ? AND Date <= ? AND StationID <= ?",
			[]slot{{20140601, 20140630}, {20140601, 20140630}, {1001, 1160}}},
		{"SELECT COUNT(*), MIN(Pollution.Rank) FROM Pollution, ZipMap, Station WHERE Pollution.ZipCode = ZipMap.ZipCode AND ZipMap.City = Station.City AND Pollution.Rank >= ? AND Pollution.Rank <= ?",
			[]slot{{1, 100}, {1, 100}}},
	}
	rng := rand.New(rand.NewSource(43))
	arg := func(s slot, prev int64, follow bool) (any, int64) {
		var x int64
		switch r := rng.Intn(8); {
		case r == 0:
			x = s.lo - 1 - rng.Int63n(50)
		case r == 1:
			x = s.hi + 1 + rng.Int63n(50)
		case follow && r < 6:
			x = prev + rng.Int63n(8)
		default:
			x = s.lo + rng.Int63n(s.hi-s.lo+1)
		}
		switch rng.Intn(6) {
		case 0:
			return int(x), x
		case 1:
			return x, x
		case 2:
			return float64(x), x
		case 3:
			return float64(x) + 0.5, x
		case 4:
			return value.NewInt(x), x
		default:
			return value.NewFloat(float64(x) - 0.25), x
		}
	}
	var total int64
	for k, st := range stmts {
		stmt, err := client.Prepare(st.sql)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			args := make([]any, len(st.slots))
			var prev int64
			for j, s := range st.slots {
				args[j], prev = arg(s, prev, j == 1)
			}
			res, err := stmt.Query(args...)
			if err != nil {
				t.Fatalf("statement %d %v: %v", k, args, err)
			}
			sql := writeOut(st.sql, args)
			want, err := ref.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("%s: rows %v, written out %v", sql, res.Rows, want.Rows)
			}
			total += res.Report.Transactions
		}
	}
	// The total the statements billed when each argument was rendered into
	// SQL text and every kind of argument compiled to its own skeleton.
	if total != 55 {
		t.Errorf("the sequence billed %d transactions, pinned at 55", total)
	}
}

// TestPrepareValidatesUpFront: a template that does not parse, or whose
// names do not resolve, fails at Prepare with its stage's *QueryError; a
// `?` is a placeholder only where a literal may stand. LIMIT takes one.
func TestPrepareValidatesUpFront(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	for _, c := range []struct {
		sql   string
		stage error
	}{
		{"SELECT * FROM Nowhere WHERE a = ?", ErrBind},
		{"SELECT Nothing FROM Weather WHERE Date = ?", ErrBind},
		{"SELECT * FROM Weather WHERE Nothing = ?", ErrBind},
		{"SELECT * FROM Weather ORDER BY Nothing LIMIT ?", ErrBind},
		{"SELECT ? FROM Weather", ErrParse},
		{"SELECT * FROM ? WHERE Date = 1", ErrParse},
		{"SELECT * FROM Weather WHERE ? = ?", ErrParse},
		{"SELECT * FROM Weather WHERE Date = ?? ", ErrParse},
	} {
		_, err := client.Prepare(c.sql)
		var qe *QueryError
		if !errors.Is(err, c.stage) || !errors.As(err, &qe) {
			t.Errorf("%s: Prepare error %v, want a %v *QueryError", c.sql, err, c.stage)
		}
	}
	stmt, err := client.Prepare("SELECT Rank FROM Pollution WHERE Rank >= ? ORDER BY Rank LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query(1, 3)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("LIMIT 3: %v, %v", res, err)
	}
	for _, bad := range []any{-1, 2.0, 2.5, "3"} {
		if _, err := stmt.Query(1, bad); !errors.Is(err, ErrParse) {
			t.Errorf("LIMIT %#v: %v, want a parse error", bad, err)
		}
	}
}

// FuzzStmtArgs: any int64 and any finite float64 in a numeric slot, and
// any string in a string slot, bind to the bound query — predicates, boxes,
// empty matches — of the statement with those literals written out; a
// non-finite float, NULL and an unsupported type are argument errors; and a
// string in a numeric slot is a bind error, as written out.
func FuzzStmtArgs(f *testing.F) {
	f.Add(int64(0), 0.0, "")
	f.Add(int64(-1), 1e6, "it's")
	f.Add(int64(math.MinInt64), -1e-5, "-- ? ''")
	f.Add(int64(math.MaxInt64), math.Copysign(0, -1), "\n'")
	f.Add(int64(20140601), 5e-324, "United States")
	f.Add(int64(7), math.MaxFloat64, "\x00\xff")
	f.Add(int64(1001), math.NaN(), "Country01")
	c, _ := whwClient(f, 0)
	const sql = "SELECT * FROM Weather WHERE Weather.Date >= ? AND Weather.Date <= ? AND Weather.StationID IN (?, ?) AND Weather.Country = ?"
	stmt, err := c.Prepare(sql)
	if err != nil {
		f.Fatal(err)
	}
	bind := func(args ...any) (*core.BoundQuery, error) {
		lits, err := stmt.literals(args)
		if err != nil {
			return nil, err
		}
		b, _, err := c.front(sql, stmt.st, lits, nil)
		return b, err
	}
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string) {
		for _, args := range [][]any{{i, fl, fl, i, s}, {fl, i, i, value.NewFloat(fl), value.NewString(s)}} {
			got, err := bind(args...)
			if math.IsNaN(fl) || math.IsInf(fl, 0) {
				var qe *QueryError
				if err == nil || errors.As(err, &qe) {
					t.Fatalf("%v: %v, want an argument error", args, err)
				}
				continue
			}
			want, wantErr := fullFront(c, writeOut(sql, args))
			if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: bound %+v (%v), written out %+v (%v)", args, got, err, want, wantErr)
			}
		}
		args := []any{i, fl, s, i, s}
		if math.IsNaN(fl) || math.IsInf(fl, 0) {
			args[1] = i
		}
		_, err := bind(args...)
		_, wantErr := fullFront(c, writeOut(sql, args))
		if !errors.Is(err, ErrBind) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%v: %v, written out %v; want one bind error", args, err, wantErr)
		}
		for _, bad := range []any{value.NewNull(), struct{}{}, float32(math.Inf(1)), []byte(s)} {
			if _, err := bind(i, i, i, i, bad); err == nil || errors.Is(err, ErrBind) {
				t.Fatalf("%#v: %v, want an argument error", bad, err)
			}
		}
	})
}
