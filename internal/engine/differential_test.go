package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/core"
	"payless/internal/market"
	"payless/internal/sqlparse"
	"payless/internal/storage"
	"payless/internal/value"
)

// sparseStride spreads the ks/js keys of the chain tables far beyond the
// 9-values-a-row range a join indexes directly, so joins on them hash.
const sparseStride = 1_000_003

// chainTable is T<i> of the differential's market: dense keys k and j
// (0..9, indexed directly), sparse keys ks and js (the same keys times
// sparseStride), a categorical c and an output v.
func chainTable(i int) *catalog.Table {
	num := func(name string, max int64) catalog.Attribute {
		return catalog.Attribute{Name: name, Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 0, Max: max}
	}
	return &catalog.Table{
		Name: fmt.Sprintf("T%d", i), Dataset: "Chain",
		Schema: value.Schema{
			{Name: "k", Type: value.Int}, {Name: "j", Type: value.Int},
			{Name: "ks", Type: value.Int}, {Name: "js", Type: value.Int},
			{Name: "c", Type: value.String}, {Name: "v", Type: value.Float},
		},
		Attrs: []catalog.Attribute{
			num("k", 9), num("j", 9), num("ks", 9*sparseStride), num("js", 9*sparseStride),
			{Name: "c", Type: value.String, Binding: catalog.Free, Class: catalog.CategoricalAttr,
				Domain: []value.Value{value.NewString("x"), value.NewString("y"), value.NewString("z")}},
			{Name: "v", Type: value.Float, Binding: catalog.Output},
		},
	}
}

// chainMarket sells T0..T3 with 30, 30, 12 and 30 rows: keys skewed towards
// small values, so keys repeat on both sides of a join, c never 'z', and v
// one of five values, so ORDER BY and DISTINCT see ties.
func chainMarket(t *testing.T, rng *rand.Rand) *market.Market {
	m := market.New()
	ds, err := m.AddDataset("Chain", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{30, 30, 12, 30} {
		rows := make([]value.Row, n)
		for r := range rows {
			k, j := int64(rng.Intn(1+rng.Intn(10))), int64(rng.Intn(1+rng.Intn(10)))
			rows[r] = value.Row{
				value.NewInt(k), value.NewInt(j), value.NewInt(k * sparseStride), value.NewInt(j * sparseStride),
				value.NewString([]string{"x", "y"}[rng.Intn(2)]), value.NewFloat(float64(rng.Intn(5)) / 4),
			}
		}
		if err := ds.AddTable(chainTable(i), rows); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// chainQuery draws a statement over 2 to 4 consecutive chain tables, listed
// in FROM in a random order: every edge on dense or sparse keys, constant
// ranges (empty ones too), IN lists on c, residuals, cross residuals, and a
// SELECT *, DISTINCT, ORDER BY/LIMIT, aggregate or COUNT(*) output.
func chainQuery(rng *rand.Rand) string {
	lo := rng.Intn(3)
	n := 2 + rng.Intn(3-lo)
	tables := make([]string, n)
	for i := range tables {
		tables[i] = fmt.Sprintf("T%d", lo+i)
	}
	pick := func() string { return tables[rng.Intn(n)] }
	var conds []string
	for i := 0; i+1 < n; i++ {
		if rng.Intn(2) == 0 {
			conds = append(conds, fmt.Sprintf("%s.j = %s.k", tables[i], tables[i+1]))
		} else {
			conds = append(conds, fmt.Sprintf("%s.js = %s.ks", tables[i], tables[i+1]))
		}
	}
	for _, tb := range tables {
		switch rng.Intn(8) {
		case 0:
			a := rng.Intn(10)
			conds = append(conds, fmt.Sprintf("%s.k >= %d AND %s.k <= %d", tb, a, tb, a+rng.Intn(6)-1))
		case 1:
			conds = append(conds, fmt.Sprintf("%s.c IN ('x', 'z')", tb))
		case 2:
			conds = append(conds, fmt.Sprintf("%s.c IN ('x', 'y') AND %s.j <= %d", tb, tb, rng.Intn(10)))
		case 3:
			conds = append(conds, fmt.Sprintf("%s.v > %g", tb, float64(rng.Intn(5))/4))
		case 4:
			conds = append(conds, fmt.Sprintf("%s.k <> %d", tb, rng.Intn(4)))
		}
	}
	if rng.Intn(3) == 0 {
		conds = append(conds, fmt.Sprintf("%s.v < %s.v", pick(), pick()))
	}
	if rng.Intn(5) == 0 {
		conds = append(conds, fmt.Sprintf("%s.k <> %s.j", pick(), pick()))
	}
	from := append([]string(nil), tables...)
	rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
	where := " FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(conds, " AND ")
	a, b := pick(), pick()
	switch rng.Intn(5) {
	case 0:
		return "SELECT *" + where
	case 1:
		return fmt.Sprintf("SELECT DISTINCT %s.c AS c1, %s.k AS k1%s", a, b, where)
	case 2:
		return fmt.Sprintf("SELECT %s.v AS v1, %s.c AS c1, %s.ks AS k1%s ORDER BY v1 DESC, c1 LIMIT %d", a, b, pick(), where, 1+rng.Intn(20))
	case 3:
		return fmt.Sprintf("SELECT %s.c AS g, COUNT(*), SUM(%s.v), MIN(%s.k), MAX(%s.v)%s GROUP BY %s.c", a, b, pick(), pick(), where, a)
	default:
		return "SELECT COUNT(*)" + where
	}
}

// chainPlan hand-builds a plan for b: relations in a random order that
// mostly joins a neighbour of the prefix (a relation without one crosses
// it, and one joining two prefix relations keys on both), each a market
// scan, a store read or, when it has an edge to the prefix, a bind join.
func chainPlan(rng *rand.Rand, b *core.BoundQuery) *core.Plan {
	edges := func(rel int, in map[int]bool) []int {
		var out []int
		for e, j := range b.Joins {
			if j.L == rel && in[j.R] || j.R == rel && in[j.L] {
				out = append(out, e)
			}
		}
		return out
	}
	plan := &core.Plan{Bound: b}
	in := map[int]bool{}
	for len(plan.Steps) < len(b.Rels) {
		var next []int
		for r := range b.Rels {
			if !in[r] && (len(in) == 0 || len(edges(r, in)) > 0 || rng.Intn(6) == 0) {
				next = append(next, r)
			}
		}
		if len(next) == 0 {
			continue
		}
		r := next[rng.Intn(len(next))]
		step := core.Step{Rel: r, Kind: core.MarketScan, BindJoin: -1, Joins: edges(r, in)}
		switch k := rng.Intn(5); {
		case k < 2 && len(step.Joins) > 0:
			step.Kind, step.BindJoin = core.MarketBind, step.Joins[rng.Intn(len(step.Joins))]
		case k == 2:
			step.Kind = core.LocalScan
		}
		plan.Steps = append(plan.Steps, step)
		in[r] = true
	}
	return plan
}

// TestExecutorMatchesRowReference is the differential property of the id
// pipeline: random statements over 2 to 4 chain relations, each run through
// a random hand-built plan by ExecuteContext (every other one by
// ExecuteText) on one buyer and by refExecute, the row executor, on
// another, the two buyers' stores kept alike by running the same sequence.
// Same bill, same error, same columns and the same rows in the same order:
// ExecuteText's are the reference's rendered by storage.RenderRows.
func TestExecutorMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := chainMarket(t, rng)
	got, ref := newSide(t, m, "ids", nil), newSide(t, m, "rows", nil)
	bind := func(s *side, sql string) *core.BoundQuery {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		b, err := core.Bind(q, s.cat)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return b
	}
	var empty, rows, binds int
	for i := 0; i < 600; i++ {
		sql := chainQuery(rng)
		plan := chainPlan(rng, bind(got, sql))
		refPlan := *plan
		refPlan.Bound = bind(ref, sql)
		var gotRel storage.Relation
		var gotText [][]string
		var gotCols []string
		var gotRep Report
		var gotErr error
		if i%2 == 0 {
			gotRel, gotRep, gotErr = got.eng.ExecuteContext(context.Background(), plan)
		} else {
			gotCols, gotText, gotRep, gotErr = got.eng.ExecuteText(context.Background(), plan)
		}
		wantRel, wantRep, wantErr := ref.eng.refExecute(context.Background(), &refPlan)
		what := fmt.Sprintf("query %d %q, plan %v", i, sql, plan)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotRep != wantRep {
			t.Fatalf("%s: error %v and bill %+v, reference %v and %+v", what, gotErr, gotRep, wantErr, wantRep)
		}
		if gotErr != nil {
			continue
		}
		if i%2 == 1 {
			if !reflect.DeepEqual(gotCols, wantRel.Schema.Names()) {
				t.Fatalf("%s: text columns %v, reference %v", what, gotCols, wantRel.Schema.Names())
			}
			if w := storage.RenderRows(wantRel.Rows); !reflect.DeepEqual(gotText, w) {
				t.Fatalf("%s: text rows differ (order counts)\n got %q\nwant %q", what, gotText, w)
			}
		} else if !reflect.DeepEqual(gotRel.Schema, wantRel.Schema) {
			t.Fatalf("%s: columns %v, reference %v", what, gotRel.Schema, wantRel.Schema)
		} else if g, w := renderRows(gotRel.Rows), renderRows(wantRel.Rows); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: rows differ (order counts)\n got %q\nwant %q", what, g, w)
		}
		if len(wantRel.Rows) == 0 {
			empty++
		} else {
			rows++
		}
		for _, s := range plan.Steps {
			if s.Kind == core.MarketBind {
				binds++
			}
		}
	}
	if empty < 50 || rows < 200 || binds < 100 {
		t.Errorf("%d empty and %d non-empty results, %d bind joins: the draw no longer covers the cases", empty, rows, binds)
	}
	t.Logf("%d empty and %d non-empty results, %d bind joins", empty, rows, binds)
}
