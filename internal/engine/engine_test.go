package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/core"
	"payless/internal/market"
	"payless/internal/region"
	"payless/internal/sched"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/stats"
	"payless/internal/storage"
	"payless/internal/value"
)

// fixture: a market with one numeric table R(a,b) plus a local table L(a,c).
type fixture struct {
	cat   *catalog.Catalog
	store *semstore.Store
	st    *stats.Store
	sched *sched.Scheduler
	m     *market.Market
}

func rTable() *catalog.Table {
	return &catalog.Table{
		Name: "R", Dataset: "DS",
		Schema: value.Schema{
			{Name: "a", Type: value.Int},
			{Name: "b", Type: value.Int},
			{Name: "v", Type: value.Float},
		},
		Attrs: []catalog.Attribute{
			{Name: "a", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 50},
			{Name: "b", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 50},
			{Name: "v", Type: value.Float, Binding: catalog.Output},
		},
	}
}

func lTable() *catalog.Table {
	return &catalog.Table{
		Name: "L", Local: true,
		Schema: value.Schema{
			{Name: "a", Type: value.Int},
			{Name: "c", Type: value.Int},
		},
		Attrs: []catalog.Attribute{
			{Name: "a", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 200},
			{Name: "c", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 200},
		},
		Cardinality: 3,
	}
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	m := market.New()
	ds, err := m.AddDataset("DS", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for a := int64(1); a <= 50; a++ {
		for b := int64(1); b <= 4; b++ {
			rows = append(rows, value.Row{value.NewInt(a), value.NewInt(b), value.NewFloat(float64(a) + float64(b)/10)})
		}
	}
	if err := ds.AddTable(rTable(), rows); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("k")

	cat := catalog.New()
	st := stats.New()
	for _, tb := range m.ExportCatalog() {
		cat.Register(tb)
		st.Register(tb.Name, tb.FullBox(), tb.Cardinality)
	}
	cat.Register(lTable())
	db := storage.NewDB()
	ltbl, _ := db.Ensure("L", lTable().Schema)
	ltbl.Insert([]value.Row{
		{value.NewInt(3), value.NewInt(30)},
		{value.NewInt(7), value.NewInt(70)},
		{value.NewInt(150), value.NewInt(99)}, // outside R.a's domain
	})
	return &fixture{
		cat:   cat,
		store: semstore.New(db),
		st:    st,
		sched: sched.New(market.AccountCaller{Market: m, Key: "k"}, sched.Config{}),
		m:     m,
	}
}

func (f *fixture) run(t *testing.T, sql string, opts core.Options) (storage.Relation, Report) {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Bind(q, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	o := core.Optimizer{Catalog: f.cat, Store: f.store, Stats: f.st, Options: opts}
	plan, err := o.Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	e := Engine{Store: f.store, Stats: f.st, Sched: f.sched, Options: opts}
	rel, rep, err := e.ExecuteContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return rel, rep
}

func TestResidualNePredicate(t *testing.T) {
	f := newFixture(t)
	rel, _ := f.run(t, "SELECT * FROM R WHERE a >= 1 AND a <= 3 AND b <> 2", core.Options{})
	// a in 1..3, b in {1,3,4}: 9 rows.
	if rel.Len() != 9 {
		t.Errorf("rows: %d, want 9", rel.Len())
	}
	for _, row := range rel.Rows {
		if row[1].Int64() == 2 {
			t.Errorf("b=2 leaked through residual: %v", row)
		}
	}
}

func TestResidualFloatOutputPredicate(t *testing.T) {
	f := newFixture(t)
	rel, _ := f.run(t, "SELECT * FROM R WHERE a = 10 AND v > 10.25", core.Options{})
	// a=10: v in {10.1, 10.2, 10.3, 10.4}; v > 10.25 keeps 2.
	if rel.Len() != 2 {
		t.Errorf("rows: %d, want 2", rel.Len())
	}
}

func TestCrossResidualNonEquiJoin(t *testing.T) {
	f := newFixture(t)
	rel, _ := f.run(t, "SELECT * FROM R, L WHERE R.a = L.a AND R.b < L.c", core.Options{})
	// Join on a: a=3 (4 rows, c=30) and a=7 (4 rows, c=70); all b<c.
	if rel.Len() != 8 {
		t.Errorf("rows: %d, want 8", rel.Len())
	}
	rel2, _ := f.run(t, "SELECT * FROM R, L WHERE R.a = L.a AND L.c < R.b", core.Options{})
	if rel2.Len() != 0 {
		t.Errorf("rows: %d, want 0", rel2.Len())
	}
}

func TestBindSkipsOutOfDomainValues(t *testing.T) {
	f := newFixture(t)
	// L holds a=150, outside R.a's domain [1,50]; the bind join must skip
	// it rather than fail.
	rel, rep := f.run(t, "SELECT * FROM L, R WHERE L.a = R.a", core.Options{})
	if rel.Len() != 8 {
		t.Errorf("rows: %d, want 8", rel.Len())
	}
	if rep.Calls == 0 {
		t.Error("bind join should have called the market")
	}
}

func TestOrderByLimit(t *testing.T) {
	f := newFixture(t)
	rel, _ := f.run(t, "SELECT a, b FROM R WHERE a >= 1 AND a <= 3 ORDER BY a DESC, b LIMIT 5", core.Options{})
	if rel.Len() != 5 {
		t.Fatalf("rows: %d", rel.Len())
	}
	if rel.Rows[0][0].Int64() != 3 || rel.Rows[0][1].Int64() != 1 {
		t.Errorf("order: %v", rel.Rows[0])
	}
	if rel.Rows[4][0].Int64() != 2 || rel.Rows[4][1].Int64() != 1 {
		t.Errorf("order tail: %v", rel.Rows[4])
	}
}

func TestCountStar(t *testing.T) {
	f := newFixture(t)
	rel, _ := f.run(t, "SELECT COUNT(*) FROM R WHERE a <= 10", core.Options{})
	if rel.Len() != 1 || rel.Rows[0][0].Int64() != 40 {
		t.Errorf("count: %v", rel.Rows)
	}
}

func TestGroupByWithAlias(t *testing.T) {
	f := newFixture(t)
	rel, _ := f.run(t, "SELECT b, COUNT(*) AS n FROM R WHERE a <= 5 GROUP BY b ORDER BY b", core.Options{})
	if rel.Len() != 4 {
		t.Fatalf("groups: %d", rel.Len())
	}
	if rel.Schema[1].Name != "n" {
		t.Errorf("alias: %v", rel.Schema)
	}
	for _, row := range rel.Rows {
		if row[1].Int64() != 5 {
			t.Errorf("group count: %v", row)
		}
	}
}

func TestProjectionAlias(t *testing.T) {
	f := newFixture(t)
	rel, _ := f.run(t, "SELECT a AS key FROM R WHERE a = 1", core.Options{})
	if rel.Schema[0].Name != "key" {
		t.Errorf("alias: %v", rel.Schema)
	}
}

func TestExecuteEmptyPlanErrors(t *testing.T) {
	f := newFixture(t)
	e := Engine{Store: f.store, Stats: f.st, Sched: f.sched}
	if _, _, err := e.ExecuteContext(context.Background(), &core.Plan{Bound: &core.BoundQuery{}}); err == nil {
		t.Error("empty plan should error")
	}
}

func TestReportAdd(t *testing.T) {
	r := Report{Calls: 1, Records: 2, Transactions: 3, Price: 4}
	r.Add(Report{Calls: 10, Records: 20, Transactions: 30, Price: 40})
	if r.Calls != 11 || r.Records != 22 || r.Transactions != 33 || r.Price != 44 {
		t.Errorf("Add: %+v", r)
	}
}

func TestStatsFeedbackImprovesEstimates(t *testing.T) {
	f := newFixture(t)
	// Before any execution the uniform estimate for a=1..10 is card/5 = 40.
	before := f.st.Estimate("R", mustBox(t, f, "R", 1, 10))
	f.run(t, "SELECT * FROM R WHERE a >= 1 AND a <= 10", core.Options{})
	after := f.st.Estimate("R", mustBox(t, f, "R", 1, 10))
	if after != 40 {
		t.Errorf("after feedback the estimate must be exact: %v (before %v)", after, before)
	}
}

// TestScanBuysThePricedRemainder: for a partially covered access, the
// remainder boxes the optimizer priced are the boxes the engine issues.
func TestScanBuysThePricedRemainder(t *testing.T) {
	f := newFixture(t)
	f.run(t, "SELECT * FROM R WHERE a >= 10 AND a <= 20", core.Options{})
	q, err := sqlparse.Parse("SELECT * FROM R WHERE a >= 5 AND a <= 30")
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Bind(q, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	var opts core.Options
	o := core.Optimizer{Catalog: f.cat, Store: f.store, Stats: f.st, Options: opts}
	plan, err := o.Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	rel := b.Rels[0]
	priced := core.Remainder(f.store, f.st, "R", rel.Box, core.RewriteConfig(rel.Table, &opts), opts.Since, nil)
	if len(priced.Boxes) == 0 || plan.Steps[0].Kind != core.MarketScan || plan.Steps[0].EstTrans != priced.Transactions {
		t.Fatalf("plan %+v does not price the remainder %+v", plan.Steps[0], priced)
	}
	var issued []string
	caller := market.CallerFunc(func(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
		issued = append(issued, q.String())
		return market.AccountCaller{Market: f.m, Key: "k"}.Call(ctx, q)
	})
	e := Engine{Store: f.store, Stats: f.st, Sched: sched.New(caller, sched.Config{}), Options: opts}
	if _, _, err := e.ExecuteContext(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, rb := range priced.Boxes {
		q, err := catalog.QueryForBox(rel.Table, rb)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, q.String())
	}
	if strings.Join(issued, "; ") != strings.Join(want, "; ") {
		t.Errorf("issued %v, priced %v", issued, want)
	}
}

func mustBox(t *testing.T, f *fixture, table string, lo, hi int64) region.Box {
	t.Helper()
	tb, _ := f.cat.Lookup(table)
	box := tb.FullBox()
	d, _ := tb.Dim("a")
	iv, ok := box.Dims[d].Intersect(region.Interval{Lo: lo, Hi: hi + 1})
	if !ok {
		t.Fatalf("%s.a in [%d,%d] is empty", table, lo, hi)
	}
	box.Dims[d] = iv
	return box
}

func TestCoalesceBindingsDenseRangeSavesTransactions(t *testing.T) {
	// Dense consecutive bindings (a=1..20, 4 rows each) coalesce into one
	// range call: 80 rows = 1 transaction instead of 20 point calls at 1
	// transaction each (the paper's Fig. 9 box B2 over known values).
	f := newFixture(t)
	ltbl, _ := f.store.DB().Lookup("L")
	var dense []value.Row
	for a := int64(1); a <= 20; a++ {
		dense = append(dense, value.Row{value.NewInt(a), value.NewInt(int64(100 + a))})
	}
	ltbl.Insert(dense)
	_, rep := f.run(t, "SELECT * FROM L, R WHERE L.a = R.a", core.Options{})
	if rep.Transactions > 3 {
		t.Errorf("dense bindings should coalesce: %d transactions over %d calls", rep.Transactions, rep.Calls)
	}
	if rep.Calls >= 20 {
		t.Errorf("coalescing should cut the call count: %d calls", rep.Calls)
	}
}

func TestCoalesceBindingsRespectsGaps(t *testing.T) {
	// Two far-apart bindings must not merge when the in-between region
	// would cost extra transactions. Teach the statistics that the middle
	// of R.a's domain is dense.
	f := newFixture(t)
	tb, _ := f.cat.Lookup("R")
	mid := tb.FullBox()
	mid.Dims[0] = region.Interval{Lo: 10, Hi: 40}
	f.st.Feedback("R", mid, 50000)
	e := Engine{Store: f.store, Stats: f.st, Sched: f.sched}
	rel := &core.Rel{Table: tb}
	rel.Box = tb.FullBox()
	attr, _ := tb.Attr("a")
	groups := e.coalesceBindings(rel, attr, 0, []int64{1, 50})
	if len(groups) != 2 {
		t.Errorf("bindings across a dense gap should stay separate: %v", groups)
	}
	// Adjacent bindings on the cheap flank still merge.
	groups2 := e.coalesceBindings(rel, attr, 0, []int64{1, 2, 3})
	if len(groups2) != 1 {
		t.Errorf("adjacent cheap bindings should merge: %v", groups2)
	}
}

func TestSelectDistinct(t *testing.T) {
	f := newFixture(t)
	rel, _ := f.run(t, "SELECT DISTINCT a FROM R WHERE a >= 1 AND a <= 5", core.Options{})
	if rel.Len() != 5 {
		t.Errorf("distinct a values: %d, want 5", rel.Len())
	}
	rel2, _ := f.run(t, "SELECT a FROM R WHERE a >= 1 AND a <= 5", core.Options{})
	if rel2.Len() != 20 {
		t.Errorf("non-distinct rows: %d, want 20", rel2.Len())
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	f := newFixture(t)
	// Per-b counts over a<=10 are 10 each; raise some groups with a<=20 on
	// b=1 only... simpler: HAVING against COUNT thresholds.
	rel, _ := f.run(t, "SELECT b, COUNT(*) AS n FROM R WHERE a <= 10 GROUP BY b HAVING n >= 10 ORDER BY b", core.Options{})
	if rel.Len() != 4 {
		t.Fatalf("groups: %d", rel.Len())
	}
	rel2, _ := f.run(t, "SELECT b, COUNT(*) AS n FROM R WHERE a <= 10 GROUP BY b HAVING n > 10", core.Options{})
	if rel2.Len() != 0 {
		t.Errorf("no group exceeds 10: %d", rel2.Len())
	}
	// HAVING on the aggregate expression text (no alias).
	rel3, _ := f.run(t, "SELECT b, COUNT(*) FROM R WHERE a <= 10 GROUP BY b HAVING COUNT(*) >= 10", core.Options{})
	if rel3.Len() != 4 {
		t.Errorf("expression-form HAVING: %d groups", rel3.Len())
	}
	// HAVING on a group-by column.
	rel4, _ := f.run(t, "SELECT b, COUNT(*) FROM R WHERE a <= 10 GROUP BY b HAVING b <= 2", core.Options{})
	if rel4.Len() != 2 {
		t.Errorf("group-column HAVING: %d groups", rel4.Len())
	}
}

func TestHavingErrors(t *testing.T) {
	f := newFixture(t)
	q, err := sqlparse.Parse("SELECT b, COUNT(*) FROM R GROUP BY b HAVING ghost >= 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Bind(q, f.cat); err == nil || !strings.Contains(err.Error(), "HAVING column ghost") {
		t.Errorf("unknown HAVING column: bind error %v", err)
	}
}

func TestFetchErrorPaths(t *testing.T) {
	f := newFixture(t)
	tb, _ := f.cat.Lookup("R")
	rel := &core.Rel{Table: tb}
	rel.Box = tb.FullBox()
	bq := &core.BoundQuery{Rels: []*core.Rel{rel}}

	// Unknown access kind.
	e := Engine{Store: f.store, Stats: f.st, Sched: f.sched}
	a := storage.NewArena()
	defer a.Release()
	if _, err := e.fetch(context.Background(), a, rel, core.Step{Kind: core.AccessKind(99)}, storage.Tuples{}, bq, &Report{}); err == nil {
		t.Error("unknown kind should error")
	}
	// Bind join with a bad join index.
	if _, err := e.bindScan(context.Background(), a, rel, core.Step{Kind: core.MarketBind, BindJoin: 5}, storage.Tuples{}, bq, &Report{}); err == nil {
		t.Error("bad bind join index should error")
	}
	// Local table not loaded into the DBMS.
	ghost := &core.Rel{Table: &catalog.Table{Name: "GhostLocal", Local: true}}
	if _, err := e.localScan(a, ghost); err == nil {
		t.Error("missing local table should error")
	}
}

func mustTable(t *testing.T, f *fixture, name string) *catalog.Table {
	t.Helper()
	tb, ok := f.cat.Lookup(name)
	if !ok {
		t.Fatalf("table %s", name)
	}
	return tb
}

func TestEvalCompareOperators(t *testing.T) {
	five := value.NewInt(5)
	cases := []struct {
		op   sqlparse.CompareOp
		v    int64
		want bool
	}{
		{sqlparse.OpEq, 5, true}, {sqlparse.OpEq, 4, false},
		{sqlparse.OpNe, 4, true}, {sqlparse.OpNe, 5, false},
		{sqlparse.OpLt, 4, true}, {sqlparse.OpLt, 5, false},
		{sqlparse.OpLe, 5, true}, {sqlparse.OpLe, 6, false},
		{sqlparse.OpGt, 6, true}, {sqlparse.OpGt, 5, false},
		{sqlparse.OpGe, 5, true}, {sqlparse.OpGe, 4, false},
	}
	for _, c := range cases {
		if got := evalCompare(value.NewInt(c.v), c.op, five); got != c.want {
			t.Errorf("%d %s 5 = %v, want %v", c.v, c.op, got, c.want)
		}
	}
	if evalCompare(five, sqlparse.CompareOp(99), five) {
		t.Error("unknown operator must be false")
	}
}

// TestCoalesceBindingsPricesSubRowEstimates: R2 has one row per odd a, so a
// single binding is estimated at half a row. Eq. 1 bills that as a whole
// transaction (⌈0.5/t⌉ = 1), and consecutive bindings then coalesce into one
// range call. Rounding such an estimate down to 0 makes every merge look
// dearer than its free parts, so the bind join pays once per fragment.
func TestCoalesceBindingsPricesSubRowEstimates(t *testing.T) {
	f := newFixture(t)
	r2 := &catalog.Table{
		Name: "R2", Dataset: "DS",
		Schema: value.Schema{{Name: "a", Type: value.Int}, {Name: "v", Type: value.Float}},
		Attrs: []catalog.Attribute{
			{Name: "a", Type: value.Int, Binding: catalog.Bound, Class: catalog.NumericAttr, Min: 1, Max: 50},
			{Name: "v", Type: value.Float, Binding: catalog.Output},
		},
	}
	var rows []value.Row
	for a := int64(1); a <= 50; a += 2 {
		rows = append(rows, value.Row{value.NewInt(a), value.NewFloat(float64(a))})
	}
	ds, _ := f.m.Dataset("DS")
	if err := ds.AddTable(r2, rows); err != nil {
		t.Fatal(err)
	}
	for _, tb := range f.m.ExportCatalog() {
		if tb.Name == "R2" {
			f.cat.Register(tb)
			f.st.Register(tb.Name, tb.FullBox(), tb.Cardinality)
		}
	}
	ltbl, _ := f.store.DB().Lookup("L")
	var dense []value.Row
	for a := int64(1); a <= 20; a++ {
		dense = append(dense, value.Row{value.NewInt(a), value.NewInt(a)})
	}
	ltbl.Insert(dense)

	f.run(t, "SELECT * FROM R2 WHERE a >= 9 AND a <= 10", core.Options{})
	_, rep := f.run(t, "SELECT * FROM L, R2 WHERE L.a = R2.a", core.Options{})
	if rep.Transactions != 1 || rep.Calls != 1 {
		t.Errorf("bind join over a = 1..20 minus the bought 9..10 billed %d transactions in %d calls, want 1 in 1",
			rep.Transactions, rep.Calls)
	}
}

// TestSelectStarOverOneRelationKeepsRows: SELECT * over one relation
// returns its input rows row for row and uncopied — the result's rows alias
// the input's — under a fresh schema named by the output, while DISTINCT,
// ORDER BY and LIMIT still apply and the input schema stays as it was.
func TestSelectStarOverOneRelationKeepsRows(t *testing.T) {
	f := newFixture(t)
	bind := func(sql string) *core.BoundQuery {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Bind(q, f.cat)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := bind("SELECT * FROM R r")
	in := storage.Relation{Schema: b.Rels[0].Schema, Rows: []value.Row{
		{value.NewInt(2), value.NewInt(1), value.NewFloat(2.1)},
		{value.NewInt(1), value.NewInt(4), value.NewFloat(1.4)},
		{value.NewInt(2), value.NewInt(1), value.NewFloat(2.1)},
	}}
	schema := in.Schema.Clone()
	out := project(nil, whole(in), b)
	if !reflect.DeepEqual(out.Rows, in.Rows) {
		t.Fatalf("rows %v, want %v", out.Rows, in.Rows)
	}
	for i := range out.Rows {
		if &out.Rows[i][0] != &in.Rows[i][0] {
			t.Errorf("row %d was copied", i)
		}
	}
	if !reflect.DeepEqual(out.Schema.Names(), b.Output) || !reflect.DeepEqual(in.Schema, schema) {
		t.Errorf("output schema %v (want %v), input schema now %v (was %v)", out.Schema.Names(), b.Output, in.Schema, schema)
	}
	if got := project(nil, whole(in), bind("SELECT DISTINCT * FROM R r")); len(got.Rows) != 2 {
		t.Errorf("DISTINCT *: %v", got.Rows)
	}
	got := project(nil, whole(in), bind("SELECT * FROM R r ORDER BY a LIMIT 2"))
	if len(got.Rows) != 2 || got.Rows[0][0].Int64() != 1 || in.Rows[0][0].Int64() != 2 {
		t.Errorf("ORDER BY a LIMIT 2: %v; input now %v", got.Rows, in.Rows)
	}
}
