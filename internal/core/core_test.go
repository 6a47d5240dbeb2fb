package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/region"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/stats"
	"payless/internal/storage"
	"payless/internal/value"
)

// numTable builds a market table with all-numeric free attributes (and an
// optional bound attribute set afterwards).
func numTable(name string, card int64, attrs ...string) *catalog.Table {
	t := &catalog.Table{Name: name, Dataset: "DS", Cardinality: card}
	for _, a := range attrs {
		t.Schema = append(t.Schema, value.Column{Name: a, Type: value.Int})
		t.Attrs = append(t.Attrs, catalog.Attribute{
			Name: a, Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 100,
		})
	}
	return t
}

func setBound(t *catalog.Table, attr string) {
	for i := range t.Attrs {
		if t.Attrs[i].Name == attr {
			t.Attrs[i].Binding = catalog.Bound
		}
	}
}

type fixture struct {
	cat   *catalog.Catalog
	store *semstore.Store
	st    *stats.Store
}

func newFixture(t testing.TB, tables ...*catalog.Table) *fixture {
	t.Helper()
	cat := catalog.New()
	st := stats.New()
	for _, tb := range tables {
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
		if !tb.Local {
			st.Register(tb.Name, tb.FullBox(), tb.Cardinality)
		}
	}
	return &fixture{cat: cat, store: semstore.New(storage.NewDB()), st: st}
}

func (f *fixture) optimize(t *testing.T, sql string, opts Options) *Plan {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(q, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	o := Optimizer{Catalog: f.cat, Store: f.store, Stats: f.st, Options: opts}
	plan, err := o.Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestBindResolvesPredsJoinsResiduals(t *testing.T) {
	tb := numTable("R", 1000, "a", "b")
	tb.Schema = append(tb.Schema, value.Column{Name: "out", Type: value.Float})
	tb.Attrs = append(tb.Attrs, catalog.Attribute{Name: "out", Type: value.Float, Binding: catalog.Output})
	s := numTable("S", 500, "a", "c")
	f := newFixture(t, tb, s)

	q, err := sqlparse.Parse("SELECT * FROM R, S WHERE R.a = S.a AND R.b >= 10 AND R.b <= 20 AND out > 5 AND R.a <> 3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(q, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Joins) != 1 || b.Joins[0].LAttr != "a" {
		t.Errorf("joins: %+v", b.Joins)
	}
	r := b.Rels[0]
	// The b range narrows b's dimension alone, into the one access box.
	want := region.NewBox(region.Interval{Lo: 1, Hi: 101}, region.Interval{Lo: 10, Hi: 21})
	if !r.Box.Equal(want) || len(r.Boxes) != 1 || !r.Boxes[0].Equal(want) {
		t.Errorf("box %v, boxes %v, want %v", r.Box, r.Boxes, want)
	}
	// out > 5 (output attr) and a <> 3 (Ne) are residuals.
	if len(r.Residual) != 2 {
		t.Errorf("residuals: %+v", r.Residual)
	}
}

func TestBindErrors(t *testing.T) {
	f := newFixture(t, numTable("R", 10, "a"))
	cases := []string{
		"SELECT * FROM Ghost",
		"SELECT * FROM R, R", // duplicate alias
		"SELECT * FROM R WHERE ghostcol = 1",
		"SELECT * FROM R WHERE R.ghost = 1",
		"SELECT * FROM R WHERE X.a = 1",
	}
	for _, sql := range cases {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := Bind(q, f.cat); err == nil {
			t.Errorf("Bind(%q) should fail", sql)
		}
	}
	// Ambiguous unqualified column across two tables, in WHERE or SELECT.
	f2 := newFixture(t, numTable("A", 10, "x"), numTable("B", 10, "x"))
	for _, sql := range []string{"SELECT * FROM A, B WHERE x = 1", "SELECT x FROM A, B WHERE A.x = B.x"} {
		q, _ := sqlparse.Parse(sql)
		if _, err := Bind(q, f2.cat); err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Errorf("Bind(%q) = %v, want an ambiguous-column error", sql, err)
		}
	}
}

// TestHavingColumnResolution: a HAVING conjunct reads the output column
// named by its text or alias, then by its bare name, then the first one
// whose name ends in ".name".
func TestHavingColumnResolution(t *testing.T) {
	f := newFixture(t, numTable("Station", 10, "City", "Country"))
	const sql = "SELECT COUNT(*) AS n FROM Station GROUP BY City, Station.Country HAVING "
	for _, tc := range []struct {
		having string
		want   int
	}{
		{"n > 1", 2},
		{"City > 1", 0},
		{"Country > 1", 1},
		{"missing > 1", -1},
	} {
		q, err := sqlparse.Parse(sql + tc.having)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Bind(q, f.cat)
		if tc.want < 0 {
			if err == nil || !strings.Contains(err.Error(), "HAVING column missing not in output") {
				t.Errorf("%s: bind error %v", tc.having, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.having, err)
		}
		if got := b.HavingIdx; len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: reads output %v of %v, want %d", tc.having, got, b.Output, tc.want)
		}
	}
}

func TestPaperSection41ForcedBinds(t *testing.T) {
	// U(x^f,y^f), R(y^b,z^f), S(t^f,w^f), T(w^b,z^f): R and T can only be
	// reached through bind joins (Fig. 4).
	u := numTable("U", 100, "x", "y")
	r := numTable("R", 1000, "y", "z")
	setBound(r, "y")
	s := numTable("S", 100, "t", "w")
	tt := numTable("T", 1000, "w", "z")
	setBound(tt, "w")
	f := newFixture(t, u, r, s, tt)

	plan := f.optimize(t, "SELECT * FROM U, R, S, T WHERE U.y = R.y AND S.w = T.w AND R.z = T.z", Options{})
	if len(plan.Steps) != 4 {
		t.Fatalf("steps: %d", len(plan.Steps))
	}
	kinds := map[string]AccessKind{}
	for _, st := range plan.Steps {
		kinds[plan.Bound.Rels[st.Rel].Table.Name] = st.Kind
	}
	if kinds["R"] != MarketBind || kinds["T"] != MarketBind {
		t.Errorf("R and T must be bind joins: %v", kinds)
	}
	if kinds["U"] != MarketScan || kinds["S"] != MarketScan {
		t.Errorf("U and S should be plain scans: %v", kinds)
	}
}

func TestBoundAttributeWithoutJoinFails(t *testing.T) {
	r := numTable("R", 100, "y", "z")
	setBound(r, "y")
	f := newFixture(t, r)
	q, _ := sqlparse.Parse("SELECT * FROM R WHERE z >= 1")
	b, err := Bind(q, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	o := Optimizer{Catalog: f.cat, Store: f.store, Stats: f.st}
	if _, err := o.Optimize(b); err == nil {
		t.Error("bound attribute with no value and no bind source must fail")
	}
}

func TestBoundAttributeSatisfiedByPredicate(t *testing.T) {
	r := numTable("R", 100, "y", "z")
	setBound(r, "y")
	f := newFixture(t, r)
	plan := f.optimize(t, "SELECT * FROM R WHERE y = 5", Options{})
	if plan.Steps[0].Kind != MarketScan {
		t.Errorf("predicate satisfies the bound attribute: %v", plan.Steps[0].Kind)
	}
}

func TestTheorem2CoveredRelationGoesFirst(t *testing.T) {
	r := numTable("R", 1000, "a", "b")
	s := numTable("S", 1000, "c", "d")
	f := newFixture(t, r, s)
	// Cover R fully in the semantic store.
	if _, err := f.store.Record(r, r.FullBox(), value.Batch{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	plan := f.optimize(t, "SELECT * FROM R, S WHERE R.a = S.c", Options{})
	if plan.Steps[0].Rel != 0 || plan.Steps[0].Kind != LocalScan {
		t.Errorf("covered relation must come first as a local scan: %+v", plan.Steps)
	}
	if plan.Steps[1].Kind == LocalScan {
		t.Errorf("S is not covered: %+v", plan.Steps[1])
	}
	if plan.EstTrans <= 0 {
		t.Error("S access should still cost")
	}
}

func TestTheorem3DisconnectedPartition(t *testing.T) {
	a := numTable("A", 500, "x")
	b := numTable("B", 500, "x")
	c := numTable("C", 500, "y")
	d := numTable("D", 500, "y")
	f := newFixture(t, a, b, c, d)
	// A-B and C-D joined; the pair groups are disconnected.
	connected := f.optimize(t, "SELECT * FROM A, B, C, D WHERE A.x = B.x AND C.y = D.y", Options{})
	if len(connected.Steps) != 4 {
		t.Fatalf("steps: %d", len(connected.Steps))
	}
	// A chain query over the same tables must evaluate at least as many
	// candidates as the disconnected one (Theorem 3 prunes the latter).
	f2 := newFixture(t, numTable("A", 500, "x", "y"), numTable("B", 500, "x", "y"),
		numTable("C", 500, "x", "y"), numTable("D", 500, "x", "y"))
	chain := f2.optimize(t, "SELECT * FROM A, B, C, D WHERE A.x = B.x AND B.y = C.y AND C.x = D.x", Options{})
	if connected.Counters.PlansEvaluated >= chain.Counters.PlansEvaluated {
		t.Errorf("disconnected query should evaluate fewer candidates: %d vs chain %d",
			connected.Counters.PlansEvaluated, chain.Counters.PlansEvaluated)
	}
}

func TestBushySearchEvaluatesMore(t *testing.T) {
	tables := []*catalog.Table{
		numTable("A", 500, "x", "y"), numTable("B", 500, "x", "y"),
		numTable("C", 500, "x", "y"), numTable("D", 500, "x", "y"),
	}
	sql := "SELECT * FROM A, B, C, D WHERE A.x = B.x AND B.y = C.y AND C.x = D.x"
	f1 := newFixture(t, tables[0], tables[1], tables[2], tables[3])
	leftDeep := f1.optimize(t, sql, Options{})
	f2 := newFixture(t,
		numTable("A", 500, "x", "y"), numTable("B", 500, "x", "y"),
		numTable("C", 500, "x", "y"), numTable("D", 500, "x", "y"))
	bushy := f2.optimize(t, sql, Options{DisableTheorems: true, DisableSQR: true})
	if bushy.Counters.PlansEvaluated <= leftDeep.Counters.PlansEvaluated {
		t.Errorf("bushy enumeration should cost more: bushy %d vs left-deep %d",
			bushy.Counters.PlansEvaluated, leftDeep.Counters.PlansEvaluated)
	}
	if len(bushy.Steps) != 4 {
		t.Errorf("bushy plan steps: %d", len(bushy.Steps))
	}
}

func TestCostCallsPrefersScans(t *testing.T) {
	// Under the calls model a whole-table scan (1 call) beats a bind join
	// with many bindings even when the scan retrieves far more tuples.
	u := numTable("U", 10, "x", "y")
	r := numTable("R", 10000, "y", "z")
	f := newFixture(t, u, r)
	plan := f.optimize(t, "SELECT * FROM U, R WHERE U.y = R.y", Options{CostModel: CostCalls, DisableSQR: true})
	for _, st := range plan.Steps {
		if plan.Bound.Rels[st.Rel].Table.Name == "R" && st.Kind != MarketScan {
			t.Errorf("calls model should scan R: %v", st.Kind)
		}
	}
	// Under the transactions model the bind join wins (10 bindings of ~1
	// transaction each vs a 100-transaction scan).
	f2 := newFixture(t, numTable("U", 10, "x", "y"), numTable("R", 10000, "y", "z"))
	plan2 := f2.optimize(t, "SELECT * FROM U, R WHERE U.y = R.y", Options{})
	for _, st := range plan2.Steps {
		if plan2.Bound.Rels[st.Rel].Table.Name == "R" && st.Kind != MarketBind {
			t.Errorf("transactions model should bind R: %v", st.Kind)
		}
	}
}

func TestPlanString(t *testing.T) {
	f := newFixture(t, numTable("R", 100, "a"))
	plan := f.optimize(t, "SELECT * FROM R", Options{})
	if plan.String() == "" || plan.Optimized < 0 {
		t.Error("plan rendering")
	}
}

// paperFullSpace computes the paper's un-reduced search space size for a
// chain query of n all-free relations:
//
//	n + Σ_{k=2..n} C(n,k) · Σ_{i=1..k-1} C(k,i) · 4^(k-i)
//
// (the headline ≈ 6^n − 5^n uses the untightened 4^(k-i) exponent; tighten
// reduces it to 4^min(i,k-i), the paper's sharper bound).
func paperFullSpace(n int, tighten bool) float64 {
	total := float64(n)
	for k := 2; k <= n; k++ {
		inner := 0.0
		for i := 1; i <= k-1; i++ {
			m := k - i
			if tighten && i < m {
				m = i
			}
			inner += choose(k, i) * math.Pow(4, float64(m))
		}
		total += choose(n, k) * inner
	}
	return total
}

// paperReducedSpace computes the paper's reduced space:
//
//	4n' + Σ_{k=2..n'} ( 4·k·(n'-k+1) + (C(n',k) - (n'-k+1)) )
func paperReducedSpace(nPrime int) float64 {
	total := 4 * float64(nPrime)
	for k := 2; k <= nPrime; k++ {
		total += 4*float64(k)*float64(nPrime-k+1) + (choose(nPrime, k) - float64(nPrime-k+1))
	}
	return total
}

func choose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-i+1) / float64(i)
	}
	return r
}

// TestSearchSpaceFormula is experiment E12: the paper claims the full space
// is ≈ 6^n − 5^n and the reduced space ≈ 2^n' + (2/3)·n'^3. Verify both
// approximations and the orders-of-magnitude reduction.
func TestSearchSpaceFormula(t *testing.T) {
	for n := 4; n <= 12; n++ {
		full := paperFullSpace(n, false)
		approx := math.Pow(6, float64(n)) - math.Pow(5, float64(n))
		if ratio := full / approx; ratio < 0.5 || ratio > 2.5 {
			t.Errorf("n=%d: full space %.3g vs 6^n-5^n %.3g (ratio %.2f)", n, full, approx, ratio)
		}
		if tight := paperFullSpace(n, true); tight > full {
			t.Errorf("n=%d: tightened bound must not exceed the plain one", n)
		}
		reduced := paperReducedSpace(n)
		rApprox := math.Pow(2, float64(n)) + 2.0/3.0*math.Pow(float64(n), 3)
		if ratio := reduced / rApprox; ratio < 0.3 || ratio > 3 {
			t.Errorf("n=%d: reduced space %.3g vs approx %.3g (ratio %.2f)", n, reduced, rApprox, ratio)
		}
		if reduced >= full {
			t.Errorf("n=%d: reduction must shrink the space (%.3g vs %.3g)", n, reduced, full)
		}
	}
	// The reduction is orders of magnitude at n=10, as the paper claims.
	if paperFullSpace(10, false)/paperReducedSpace(10) < 1000 {
		t.Error("reduction at n=10 should exceed three orders of magnitude")
	}
}

func TestRewriteConfigDefaults(t *testing.T) {
	tb := numTable("R", 10, "a")
	opts := &Options{}
	cfg := RewriteConfig(tb, opts)
	if cfg.TuplesPerTransaction != 100 {
		t.Errorf("default t: %d", cfg.TuplesPerTransaction)
	}
	opts2 := &Options{TuplesPerTransaction: map[string]int{"DS": 500}}
	if got := RewriteConfig(tb, opts2).TuplesPerTransaction; got != 500 {
		t.Errorf("per-dataset t: %d", got)
	}
}

func TestAccessKindString(t *testing.T) {
	if LocalScan.String() != "local" || MarketScan.String() != "scan" || MarketBind.String() != "bind" || AccessKind(9).String() != "?" {
		t.Error("AccessKind strings")
	}
}

func TestBindInExpansion(t *testing.T) {
	r := numTable("R", 1000, "a", "b")
	f := newFixture(t, r)
	q, err := sqlparse.Parse("SELECT * FROM R WHERE a IN (1, 5, 9) AND b >= 10 AND b <= 20")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(q, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	rel := b.Rels[0]
	if len(rel.Boxes) != 3 {
		t.Fatalf("boxes: %v", rel.Boxes)
	}
	for i, want := range []int64{1, 5, 9} {
		if rel.Boxes[i].Dims[0] != region.Point(want) {
			t.Errorf("box %d: %v", i, rel.Boxes[i])
		}
		if rel.Boxes[i].Dims[1] != (region.Interval{Lo: 10, Hi: 21}) {
			t.Errorf("box %d range dim: %v", i, rel.Boxes[i])
		}
	}
	// Bounding box spans the values.
	if rel.Box.Dims[0] != (region.Interval{Lo: 1, Hi: 10}) {
		t.Errorf("bounding: %v", rel.Box)
	}
	if got := rel.AccessBoxes(); len(got) != 3 {
		t.Errorf("AccessBoxes: %v", got)
	}
}

func TestBindInDuplicatesAndOutOfDomain(t *testing.T) {
	r := numTable("R", 1000, "a")
	f := newFixture(t, r)
	q, _ := sqlparse.Parse("SELECT * FROM R WHERE a IN (2, 2, 999)")
	b, err := Bind(q, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rels[0].Boxes) != 1 {
		t.Errorf("dup + out-of-domain should leave one box: %v", b.Rels[0].Boxes)
	}
	// All values out of domain: empty access set, zero-price plan.
	q2, _ := sqlparse.Parse("SELECT * FROM R WHERE a IN (999)")
	b2, err := Bind(q2, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Rels[0].Boxes) != 0 || b2.Rels[0].Boxes == nil {
		t.Errorf("empty access set expected: %v", b2.Rels[0].Boxes)
	}
	o := Optimizer{Catalog: f.cat, Store: f.store, Stats: f.st}
	plan, err := o.Optimize(b2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstTrans != 0 {
		t.Errorf("empty match must cost nothing: %d", plan.EstTrans)
	}
}

func TestBindInHugeListResidual(t *testing.T) {
	r := numTable("R", 1000, "a")
	f := newFixture(t, r)
	list := "1"
	for i := 2; i <= 70; i++ {
		list += fmt.Sprintf(", %d", i)
	}
	q, _ := sqlparse.Parse("SELECT * FROM R WHERE a IN (" + list + ")")
	b, err := Bind(q, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	rel := b.Rels[0]
	if len(rel.Residual) != 1 || len(rel.Residual[0].InVals) != 70 {
		t.Errorf("oversized IN should fall back to residual: residual=%v", rel.Residual)
	}
	if rel.Boxes != nil && len(rel.Boxes) != 1 {
		t.Errorf("boxes should stay whole: %v", rel.Boxes)
	}
}

func TestBindOutOfDomainEqualityMatchesNothing(t *testing.T) {
	r := numTable("R", 1000, "a")
	f := newFixture(t, r)
	q, _ := sqlparse.Parse("SELECT * FROM R WHERE a = 5000")
	b, err := Bind(q, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rels[0].Boxes) != 0 || b.Rels[0].Boxes == nil {
		t.Errorf("out-of-domain equality: %v", b.Rels[0].Boxes)
	}
}

func TestPlanDescribe(t *testing.T) {
	u := numTable("U", 10, "x", "y")
	r := numTable("R", 10000, "y", "z")
	f := newFixture(t, u, r)
	plan := f.optimize(t, "SELECT * FROM U, R WHERE U.y = R.y", Options{})
	out := plan.Describe()
	for _, want := range []string{"plan:", "market scan", "bind join", "join U.y = R.y"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe missing %q:\n%s", want, out)
		}
	}
}
