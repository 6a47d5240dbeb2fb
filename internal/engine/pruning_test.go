package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/core"
	"payless/internal/market"
	"payless/internal/sched"
	"payless/internal/semstore"
	"payless/internal/sqlparse"
	"payless/internal/stats"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// qualify prefixes every column with "alias.", as the binder names a
// relation's columns once fetched.
func qualify(alias string, schema value.Schema) value.Schema {
	out := make(value.Schema, len(schema))
	for i, c := range schema {
		out[i] = value.Column{Name: alias + "." + c.Name, Type: c.Type}
	}
	return out
}

// ExecuteContext is ExecuteText with the result as a relation of values,
// which the tests compare.
func (e *Engine) ExecuteContext(ctx context.Context, plan *core.Plan) (storage.Relation, Report, error) {
	var report Report
	a := storage.NewArena()
	defer a.Release()
	t, rel, err := e.run(ctx, a, plan, &report)
	if err == nil && plain(plan.Bound.Query) {
		rel = project(a, t, plan.Bound)
	}
	return rel, report, err
}

// refExecute is the row executor the id pipeline replaced, kept as the
// differential reference for ExecuteContext: every relation is fetched into
// a row list, every join copies every column of both sides (a string-keyed
// map join of its own, building on the smaller side, right on a tie), and
// the SELECT list runs over the materialised result. Only the fetch, the
// comparison of two values and the aggregator are shared with the executor.
func (e *Engine) refExecute(ctx context.Context, plan *core.Plan) (storage.Relation, Report, error) {
	var report Report
	b := plan.Bound
	a := storage.NewArena()
	defer a.Release()
	var cur storage.Relation
	for i, step := range plan.Steps {
		rel := b.Rels[step.Rel]
		src, err := e.fetch(ctx, a, rel, step, whole(cur), b, &report)
		if err != nil {
			return storage.Relation{}, report, err
		}
		fetched := storage.Relation{Schema: qualify(rel.Alias(), rel.Table.Schema)}
		for i := range src.N {
			row := make(value.Row, len(fetched.Schema))
			for c := range row {
				row[c] = src.Value(storage.Col{In: 0, Col: c}, i)
			}
			if refResidual(row, rel) {
				fetched.Rows = append(fetched.Rows, row)
			}
		}
		if i == 0 {
			cur = fetched
			continue
		}
		var lc, rc []int
		for _, eIdx := range step.Joins {
			newAttr, prefixRel, prefixAttr := b.Joins[eIdx].Toward(step.Rel)
			lc = append(lc, cur.Schema.IndexOf(b.Rels[prefixRel].Alias()+"."+prefixAttr))
			rc = append(rc, fetched.Schema.IndexOf(rel.Alias()+"."+newAttr))
		}
		cur = refJoin(cur, fetched, lc, rc)
	}
	return refProject(refCrossResidual(cur, b), b), report, nil
}

// whole is r as the tuples of one input, every row in order, in an arena
// of its own.
func whole(r storage.Relation) storage.Tuples { return storage.NewArena().Whole(r.Schema, r.Rows) }

// refResidual tests rel's constant predicates on one of its rows.
func refResidual(row value.Row, rel *core.Rel) bool {
	for _, c := range rel.Residual {
		v, in := row[rel.Table.Schema.IndexOf(c.Left.Column)], false
		for _, w := range c.InVals {
			in = in || v.Equal(w)
		}
		if c.IsIn() && !in || !c.IsIn() && !evalCompare(v, c.Op, *c.RightVal) {
			return false
		}
	}
	return true
}

// refJoin equi-joins l and r on a map of rendered value.NumericKey keys:
// the build side is the smaller (right on a tie), pairs come in probe-row
// order and each probe row's matches in build-row order; with no keys every
// pair is emitted, left-major.
func refJoin(l, r storage.Relation, lc, rc []int) storage.Relation {
	out := storage.Relation{Schema: append(l.Schema.Clone(), r.Schema...)}
	key := func(row value.Row, cols []int) string {
		var b strings.Builder
		for _, c := range cols {
			v := value.NumericKey.Canonical(row[c])
			fmt.Fprintf(&b, "%d:%q|", v.K, v.String())
		}
		return b.String()
	}
	build, probe, bc, pc, swapped := r, l, rc, lc, false
	if len(lc) > 0 && len(l.Rows) < len(r.Rows) {
		build, probe, bc, pc, swapped = l, r, lc, rc, true
	}
	ht := map[string][]value.Row{}
	for _, row := range build.Rows {
		ht[key(row, bc)] = append(ht[key(row, bc)], row)
	}
	for _, p := range probe.Rows {
		for _, m := range ht[key(p, pc)] {
			lrow, rrow := p, m
			if swapped {
				lrow, rrow = m, p
			}
			out.Rows = append(out.Rows, append(append(value.Row{}, lrow...), rrow...))
		}
	}
	return out
}

// refCrossResidual keeps the joined rows every cross residual accepts.
func refCrossResidual(rel storage.Relation, b *core.BoundQuery) storage.Relation {
	return rel.Select(func(row value.Row) bool {
		for _, c := range b.CrossResidual {
			if !evalCompare(row[rel.Schema.IndexOf(b.Cols[c.Left])], c.Op, row[rel.Schema.IndexOf(b.Cols[*c.RightCol])]) {
				return false
			}
		}
		return true
	})
}

// refProject applies the SELECT list to materialised rows.
func refProject(rel storage.Relation, b *core.BoundQuery) storage.Relation {
	q := b.Query
	if q.HasAggregates() {
		groupIdx, aggs := aggregatePlan(rel.Schema.IndexOf, b)
		return finishAggregate(storage.Aggregate(rel, groupIdx, aggs), b)
	}
	out := storage.Relation{Schema: make(value.Schema, len(b.Output))}
	idx := make([]int, len(b.Output))
	for i, name := range b.Output {
		if b.Star != nil {
			idx[i] = rel.Schema.IndexOf(b.Star[i])
		} else {
			idx[i] = rel.Schema.IndexOf(b.Cols[q.Select[i].Col])
		}
		out.Schema[i] = value.Column{Name: name, Type: rel.Schema[idx[i]].Type}
	}
	for _, row := range rel.Rows {
		p := make(value.Row, len(idx))
		for i, c := range idx {
			p[i] = row[c]
		}
		out.Rows = append(out.Rows, p)
	}
	if q.Distinct {
		out = out.Distinct()
	}
	return orderLimit(out, b)
}

// side is one buyer: its own store, statistics and account on a shared
// market, so two sides fed the same SQL go through the same plans.
type side struct {
	cat   *catalog.Catalog
	store *semstore.Store
	st    *stats.Store
	eng   Engine
}

const tuplesPerTransaction = 100

type localRows struct {
	meta *catalog.Table
	rows []value.Row
}

func newSide(t *testing.T, m *market.Market, key string, locals []localRows) *side {
	t.Helper()
	m.RegisterAccount(key)
	s := &side{cat: catalog.New(), st: stats.New()}
	for _, tb := range m.ExportCatalog() {
		s.cat.Register(tb)
		s.st.Register(tb.Name, tb.FullBox(), tb.Cardinality)
	}
	db := storage.NewDB()
	for _, l := range locals {
		s.cat.Register(l.meta)
		tbl, err := db.Ensure(l.meta.Name, l.meta.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Insert(l.rows); err != nil {
			t.Fatal(err)
		}
	}
	s.store = semstore.New(db)
	s.eng = Engine{Store: s.store, Stats: s.st, Sched: sched.New(market.AccountCaller{Market: m, Key: key}, sched.Config{}),
		Options: core.Options{DefaultTuplesPerTransaction: tuplesPerTransaction}}
	return s
}

// run plans sql against the side's current store and executes it with exec.
func (s *side) run(sql string, exec func(*Engine, context.Context, *core.Plan) (storage.Relation, Report, error)) (storage.Relation, Report, *core.Plan, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return storage.Relation{}, Report{}, nil, err
	}
	b, err := core.Bind(q, s.cat)
	if err != nil {
		return storage.Relation{}, Report{}, nil, err
	}
	plan, err := (&core.Optimizer{Catalog: s.cat, Store: s.store, Stats: s.st, Options: s.eng.Options}).Optimize(b)
	if err != nil {
		return storage.Relation{}, Report{}, nil, err
	}
	rel, rep, err := exec(&s.eng, context.Background(), plan)
	return rel, rep, plan, err
}

func renderRows(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			fmt.Fprintf(&b, "%d:%q ", v.K, v.String())
		}
		out[i] = b.String()
	}
	return out
}

// TestPrunedExecutionMatchesUnpruned runs every workload template plus
// hand-written shapes through two buyers on one market — one executing with
// needed-column joins and the streamed final aggregate, one with the
// keep-everything reference — first cold (purchases), then again over the
// warm store. Same plan, same columns, same rows in the same order, same
// bill, same error. (TestBindJoinReadsPrunedPrefix forces the plan shape
// these queries rarely get at this scale.)
func TestPrunedExecutionMatchesUnpruned(t *testing.T) {
	whw := workload.GenerateWHW(workload.WHWConfig{Seed: 11, Countries: 4, StationsPerCountry: 4, CitiesPerCountry: 3, Days: 40, StartDate: 20140401, Zips: 60, MaxRank: 200})
	tpch := workload.GenerateTPCH(workload.TPCHConfig{Seed: 11, ScaleFactor: 0.2})
	country := whw.StationRows[0][whw.Station.Schema.IndexOf("Country")].Str()
	span := fmt.Sprintf("Weather.Date >= %d AND Weather.Date <= %d", whw.Dates[3], whw.Dates[20])
	envs := []struct {
		name      string
		install   func(*market.Market) error
		locals    []localRows
		templates []workload.Template
		sql       []string
	}{
		{
			name:      "whw",
			install:   func(m *market.Market) error { return whw.Install(m, storage.NewDB(), tuplesPerTransaction, 1) },
			locals:    []localRows{{whw.ZipMap, whw.ZipMapRows}},
			templates: whw.Templates(),
			sql: []string{
				// SELECT * keeps every column, in FROM order whatever the join order.
				"SELECT * FROM Weather, Station WHERE Station.StationID = Weather.StationID AND Weather.Country = '" + country + "' AND " + span,
				// Unqualified references that are unique across the join.
				"SELECT City, Temperature, Date FROM Station, Weather WHERE Station.StationID = Weather.StationID AND Weather.Country = '" + country + "' AND " + span + " ORDER BY Date DESC, City LIMIT 7",
				// GROUP BY and HAVING on columns the SELECT list does not name.
				"SELECT AVG(Temperature), COUNT(*) FROM Station, Weather WHERE Station.StationID = Weather.StationID AND Weather.Country = '" + country + "' AND " + span + " GROUP BY City HAVING COUNT(*) > 2",
				"SELECT DISTINCT City FROM Station, Weather WHERE Station.StationID = Weather.StationID AND Weather.Country = '" + country + "' AND " + span,
				// Ambiguous: both tables have a Country and a StationID.
				"SELECT Country FROM Station, Weather WHERE Station.StationID = Weather.StationID AND Weather.Country = '" + country + "' AND " + span,
				"SELECT COUNT(*) FROM Station, Weather WHERE Station.StationID = Weather.StationID AND Weather.Country = '" + country + "' AND " + span + " GROUP BY StationID",
				// ORDER BY addresses the output only.
				"SELECT City FROM Station, Weather WHERE Station.StationID = Weather.StationID AND Weather.Country = '" + country + "' AND " + span + " ORDER BY Temperature",
			},
		},
		{
			name:      "tpch",
			install:   func(m *market.Market) error { return tpch.Install(m, storage.NewDB(), tuplesPerTransaction, 1) },
			locals:    []localRows{{tpch.Nation, tpch.NationRows}, {tpch.Region, tpch.RegionRows}},
			templates: tpch.Templates(),
			sql: []string{
				"SELECT NName, COUNT(*), SUM(ExtendedPrice) FROM Nation, Supplier, Lineitem WHERE Nation.NationKey <= 4 AND Nation.NationKey = Supplier.NationKey AND Supplier.SuppKey = Lineitem.SuppKey AND Lineitem.ShipDate >= 100 AND Lineitem.ShipDate <= 900 GROUP BY NName",
				// Cross residuals: column-to-column, evaluated on the joined rows.
				"SELECT COUNT(*), MIN(ShipDate), MAX(TotalPrice) FROM Orders, Lineitem WHERE Orders.OrderKey = Lineitem.OrderKey AND Orders.OrderDate <= 300 AND Lineitem.ShipDate > Orders.OrderDate",
				"SELECT Orders.OrderKey, Quantity FROM Orders, Lineitem WHERE Orders.OrderKey = Lineitem.OrderKey AND Orders.OrderDate <= 200 AND Lineitem.ShipDate > Orders.OrderDate AND Lineitem.Quantity <> Orders.CustKey",
				// A three-step plan whose later steps read a pruned prefix.
				"SELECT NName, SUM(TotalPrice) FROM Nation, Customer, Orders WHERE Nation.NationKey = Customer.NationKey AND Customer.CustKey = Orders.CustKey AND Nation.RegionKey = 2 AND Orders.OrderDate >= 100 AND Orders.OrderDate <= 500 GROUP BY NName ORDER BY NName",
				"SELECT MktSegment, OrderPriority FROM Customer, Orders WHERE Customer.CustKey = Orders.CustKey AND Customer.NationKey = 3 ORDER BY OrderPriority, MktSegment LIMIT 20",
				"SELECT AVG(AcctBal) FROM Customer WHERE Customer.NationKey <= 5 GROUP BY MktSegment",
				"SELECT COUNT(*) FROM Part, PartSupp, Supplier, Nation WHERE Part.Size <= 5 AND Part.PartKey = PartSupp.PartKey AND PartSupp.SuppKey = Supplier.SuppKey AND Supplier.NationKey = Nation.NationKey GROUP BY NName HAVING COUNT(*) >= 1",
				// HAVING without aggregation and a column that does not exist.
				"SELECT NName FROM Nation, Customer WHERE Nation.NationKey = Customer.NationKey HAVING COUNT(*) > 1",
			},
		},
	}
	for _, env := range envs {
		t.Run(env.name, func(t *testing.T) {
			m := market.New()
			if err := env.install(m); err != nil {
				t.Fatal(err)
			}
			pruned := newSide(t, m, "pruned", env.locals)
			ref := newSide(t, m, "ref", env.locals)
			queries := append(env.sql, workload.Mix(env.templates, 3*len(env.templates), 5)...)
			failures := 0
			for _, state := range []string{"cold", "warm"} {
				for _, sql := range queries {
					got, gotRep, gotPlan, gotErr := pruned.run(sql, (*Engine).ExecuteContext)
					want, wantRep, wantPlan, wantErr := ref.run(sql, (*Engine).refExecute)
					if (gotPlan == nil) != (wantPlan == nil) || (gotPlan != nil && gotPlan.String() != wantPlan.String()) {
						t.Fatalf("%s %q: the two sides planned differently:\n%v\n%v", state, sql, gotPlan, wantPlan)
					}
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s %q: error %v, reference %v", state, sql, gotErr, wantErr)
					}
					if gotRep != wantRep {
						t.Fatalf("%s %q: billed %+v, reference %+v", state, sql, gotRep, wantRep)
					}
					if gotErr != nil {
						failures++
						continue
					}
					if !reflect.DeepEqual(got.Schema, want.Schema) {
						t.Fatalf("%s %q: columns %v, reference %v", state, sql, got.Schema, want.Schema)
					}
					if g, w := renderRows(got.Rows), renderRows(want.Rows); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s %q: rows differ (order counts)\n got %q\nwant %q", state, sql, g, w)
					}
				}
			}
			if failures == 0 {
				t.Error("no query failed: the error cases were not exercised")
			}
		})
	}
}

// TestBindJoinReadsPrunedPrefix hand-builds the plan the optimizer picks for
// selective prefixes at scale — bind the second relation from the first,
// then the third from the join of the two — so the third step's binding
// values are read out of a join output that kept only the needed columns.
func TestBindJoinReadsPrunedPrefix(t *testing.T) {
	tpch := workload.GenerateTPCH(workload.TPCHConfig{Seed: 11, ScaleFactor: 0.2})
	m := market.New()
	if err := tpch.Install(m, storage.NewDB(), tuplesPerTransaction, 1); err != nil {
		t.Fatal(err)
	}
	locals := []localRows{{tpch.Nation, tpch.NationRows}, {tpch.Region, tpch.RegionRows}}
	const from = " FROM Nation, Customer, Orders WHERE Nation.NationKey <= 2 AND Nation.NationKey = Customer.NationKey AND Customer.CustKey = Orders.CustKey AND Customer.MktSegment = 'BUILDING'"
	for _, sql := range []string{
		"SELECT Orders.OrderKey, TotalPrice" + from + " ORDER BY TotalPrice DESC LIMIT 5",
		"SELECT NName, COUNT(*), MAX(TotalPrice)" + from + " GROUP BY NName",
		"SELECT *" + from,
	} {
		var results [2]storage.Relation
		var reports [2]Report
		for i, exec := range []func(*Engine, context.Context, *core.Plan) (storage.Relation, Report, error){(*Engine).ExecuteContext, (*Engine).refExecute} {
			s := newSide(t, m, fmt.Sprintf("bind-%d-%d", i, len(sql)), locals)
			q, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.Bind(q, s.cat)
			if err != nil {
				t.Fatal(err)
			}
			edge := func(l, r string) int {
				for e, j := range b.Joins {
					if b.Rels[j.L].Table.Name == l && b.Rels[j.R].Table.Name == r {
						return e
					}
				}
				t.Fatalf("no join edge %s-%s in %v", l, r, b.Joins)
				return -1
			}
			nc, co := edge("Nation", "Customer"), edge("Customer", "Orders")
			plan := &core.Plan{Bound: b, Steps: []core.Step{
				{Rel: 0, Kind: core.LocalScan, BindJoin: -1},
				{Rel: 1, Kind: core.MarketBind, BindJoin: nc, Joins: []int{nc}},
				{Rel: 2, Kind: core.MarketBind, BindJoin: co, Joins: []int{co}},
			}}
			results[i], reports[i], err = exec(&s.eng, context.Background(), plan)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
		}
		if results[0].Len() == 0 || reports[0].Calls < 3 {
			t.Fatalf("%q: %d rows from %d calls: the bind joins did not run", sql, results[0].Len(), reports[0].Calls)
		}
		if reports[0] != reports[1] {
			t.Errorf("%q: billed %+v, reference %+v", sql, reports[0], reports[1])
		}
		if !reflect.DeepEqual(results[0].Schema, results[1].Schema) {
			t.Errorf("%q: columns %v, reference %v", sql, results[0].Schema, results[1].Schema)
		}
		if g, w := renderRows(results[0].Rows), renderRows(results[1].Rows); !reflect.DeepEqual(g, w) {
			t.Errorf("%q: rows differ (order counts)\n got %q\nwant %q", sql, g, w)
		}
	}
}

// TestNeededColumns pins the columns the binder records as read after the
// scans, on a three-relation join.
func TestNeededColumns(t *testing.T) {
	tpch := workload.GenerateTPCH(workload.TPCHConfig{Seed: 1, ScaleFactor: 0.05})
	cat := catalog.New()
	for _, tb := range append(tpch.MarketTables(), tpch.Nation, tpch.Region) {
		cat.Register(tb)
	}
	needed := func(sql string) []string {
		t.Helper()
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Bind(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		if b.Star != nil {
			return nil
		}
		need := map[string]bool{}
		for _, name := range b.Cols {
			need[name] = true
		}
		var out []string
		for _, rel := range b.Rels { // schema order, for a stable comparison
			for _, c := range qualify(rel.Alias(), rel.Table.Schema) {
				if need[c.Name] {
					out = append(out, c.Name)
				}
			}
		}
		return out
	}
	const joins = " FROM Nation, Customer, Orders WHERE Nation.NationKey = Customer.NationKey AND Customer.CustKey = Orders.CustKey"
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{"SELECT COUNT(*)" + joins, []string{"Nation.NationKey", "Customer.CustKey", "Customer.NationKey", "Orders.CustKey"}},
		{"SELECT NName, SUM(TotalPrice)" + joins + " GROUP BY MktSegment ORDER BY MktSegment",
			[]string{"Nation.NationKey", "Nation.NName", "Customer.CustKey", "Customer.NationKey", "Customer.MktSegment", "Orders.CustKey", "Orders.TotalPrice"}},
		{"SELECT OrderKey" + joins + " AND Orders.OrderDate > Customer.AcctBal",
			[]string{"Nation.NationKey", "Customer.CustKey", "Customer.NationKey", "Customer.AcctBal", "Orders.OrderKey", "Orders.CustKey", "Orders.OrderDate"}},
		{"SELECT *" + joins, nil},
	} {
		if got := needed(tc.sql); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s\n needed %v\n   want %v", tc.sql, got, tc.want)
		}
	}
}
