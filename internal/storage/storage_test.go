package storage

import (
	"strings"
	"testing"
	"testing/quick"

	"payless/internal/value"
)

func sch(names ...string) value.Schema {
	s := make(value.Schema, len(names))
	for i, n := range names {
		s[i] = value.Column{Name: n, Type: value.Int}
	}
	return s
}

func intRow(vs ...int64) value.Row {
	r := make(value.Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

func TestDBCreateEnsureLookupDrop(t *testing.T) {
	db := NewDB()
	tb, err := db.Create("T", sch("a", "b"))
	if err != nil || tb.Name() != "T" {
		t.Fatalf("Create: %v %v", tb, err)
	}
	if _, err := db.Create("t", sch("a")); err == nil {
		t.Error("duplicate create (case-insensitive) should error")
	}
	got, err := db.Ensure("T", sch("a", "b"))
	if err != nil || got != tb {
		t.Errorf("Ensure existing: %v %v", got, err)
	}
	if _, err := db.Ensure("T", sch("a")); err == nil {
		t.Error("Ensure with mismatched width should error")
	}
	if _, err := db.Ensure("U", sch("x")); err != nil {
		t.Errorf("Ensure new: %v", err)
	}
	if _, ok := db.Lookup("u"); !ok {
		t.Error("Lookup after Ensure")
	}
	db.Drop("U")
	if _, ok := db.Lookup("U"); ok {
		t.Error("Drop")
	}
}

func TestInsertDedup(t *testing.T) {
	db := NewDB()
	tb, _ := db.Create("T", sch("a", "b"))
	n, err := tb.Insert([]value.Row{intRow(1, 2), intRow(1, 2), intRow(3, 4)})
	if err != nil || n != 2 {
		t.Fatalf("Insert: n=%d err=%v", n, err)
	}
	n, _ = tb.Insert([]value.Row{intRow(3, 4), intRow(5, 6)})
	if n != 1 || tb.Len() != 3 {
		t.Errorf("dedup across inserts: n=%d len=%d", n, tb.Len())
	}
	if _, err := tb.Insert([]value.Row{intRow(1)}); err == nil {
		t.Error("wrong-width row should error")
	}
}

func TestRelationSnapshotIsolation(t *testing.T) {
	db := NewDB()
	tb, _ := db.Create("T", sch("a"))
	tb.Insert([]value.Row{intRow(1)})
	rel := tb.Relation()
	tb.Insert([]value.Row{intRow(2)})
	if rel.Len() != 1 {
		t.Error("Relation must be a snapshot")
	}
}

// TestRelationAllocatesNoRowHeaders: a snapshot shares the table's row
// list, so it costs the schema copy alone, and rows appended to it on
// either side stay apart.
func TestRelationAllocatesNoRowHeaders(t *testing.T) {
	tb, _ := NewDB().Create("T", sch("a"))
	for i := 0; i < 1000; i++ {
		tb.Insert([]value.Row{intRow(int64(i))})
	}
	var rel Relation
	if n := testing.AllocsPerRun(10, func() { rel = tb.Relation() }); n > 1 {
		t.Errorf("Relation of %d rows: %v allocations, want 1 (the schema)", rel.Len(), n)
	}
	mine := append(rel.Rows, intRow(-1))
	tb.Insert([]value.Row{intRow(1000)})
	if mine[1000][0].Int64() != -1 || tb.Relation().Rows[1000][0].Int64() != 1000 {
		t.Error("a row appended to a snapshot and one inserted into the table share a slot")
	}
}

func TestSelectProjectDistinct(t *testing.T) {
	rel := Relation{Schema: sch("a", "b"), Rows: []value.Row{intRow(1, 10), intRow(2, 20), intRow(2, 20), intRow(3, 10)}}
	sel := rel.Select(func(r value.Row) bool { return r[1].Int64() == 10 })
	if sel.Len() != 2 {
		t.Errorf("Select: %d", sel.Len())
	}
	p := whole(rel).Project([]Col{{0, 1}})
	if p.Schema[0].Name != "b" || p.Rows[0][0].Int64() != 10 {
		t.Errorf("Project: %v", p)
	}
	d := rel.Distinct()
	if d.Len() != 3 {
		t.Errorf("Distinct: %d", d.Len())
	}
}

func TestHashJoin(t *testing.T) {
	l := Relation{Schema: sch("id", "x"), Rows: []value.Row{intRow(1, 100), intRow(2, 200), intRow(3, 300)}}
	r := Relation{Schema: sch("id2", "y"), Rows: []value.Row{intRow(2, 7), intRow(3, 8), intRow(3, 9), intRow(4, 10)}}
	j := HashJoin(l, r, []int{0}, []int{0})
	if j.Len() != 3 {
		t.Fatalf("join cardinality: %d", j.Len())
	}
	if len(j.Schema) != 4 || j.Schema[2].Name != "id2" {
		t.Errorf("join schema: %v", j.Schema)
	}
	for _, row := range j.Rows {
		if row[0].Int64() != row[2].Int64() {
			t.Errorf("join key mismatch in %v", row)
		}
	}
}

func TestHashJoinBuildSideSwap(t *testing.T) {
	// Left smaller than right exercises the swapped build path; column order
	// of the output must still be left++right.
	l := Relation{Schema: sch("id"), Rows: []value.Row{intRow(1)}}
	r := Relation{Schema: sch("id2", "y"), Rows: []value.Row{intRow(1, 5), intRow(1, 6), intRow(2, 7)}}
	j := HashJoin(l, r, []int{0}, []int{0})
	if j.Len() != 2 {
		t.Fatalf("cardinality: %d", j.Len())
	}
	for _, row := range j.Rows {
		if len(row) != 3 || row[0].Int64() != 1 || row[1].Int64() != 1 {
			t.Errorf("row layout: %v", row)
		}
	}
}

func TestHashJoinIntFloatKey(t *testing.T) {
	l := Relation{Schema: sch("id"), Rows: []value.Row{intRow(2)}}
	r := Relation{Schema: value.Schema{{Name: "id2", Type: value.Float}}, Rows: []value.Row{{value.NewFloat(2.0)}}}
	j := HashJoin(l, r, []int{0}, []int{0})
	if j.Len() != 1 {
		t.Error("Int(2) should join Float(2.0)")
	}
}

func TestHashJoinNoKeysFallsBackToCross(t *testing.T) {
	l := Relation{Schema: sch("a"), Rows: []value.Row{intRow(1), intRow(2)}}
	r := Relation{Schema: sch("b"), Rows: []value.Row{intRow(3)}}
	j := HashJoin(l, r, nil, nil)
	if j.Len() != 2 {
		t.Errorf("no-key join should be cross product: %d", j.Len())
	}
}

func TestCross(t *testing.T) {
	l := Relation{Schema: sch("a"), Rows: []value.Row{intRow(1), intRow(2)}}
	r := Relation{Schema: sch("b"), Rows: []value.Row{intRow(3), intRow(4)}}
	c := HashJoin(l, r, nil, nil)
	if c.Len() != 4 || len(c.Schema) != 2 {
		t.Errorf("Cross: %v", c)
	}
	// Left-major: (1,3) (1,4) (2,3) (2,4).
	if c.Rows[1][0].Int64() != 1 || c.Rows[1][1].Int64() != 4 || c.Rows[2][0].Int64() != 2 {
		t.Errorf("Cross order: %v", c.Rows)
	}
}

func TestAggregateGlobal(t *testing.T) {
	rel := Relation{Schema: sch("a"), Rows: []value.Row{intRow(1), intRow(2), intRow(3)}}
	out := Aggregate(rel, nil, []AggSpec{
		{Func: Count, Col: -1},
		{Func: Sum, Col: 0},
		{Func: Avg, Col: 0},
		{Func: Min, Col: 0},
		{Func: Max, Col: 0},
	})
	if out.Len() != 1 {
		t.Fatalf("global aggregate rows: %d", out.Len())
	}
	row := out.Rows[0]
	if row[0].Int64() != 3 || row[1].Float64() != 6 || row[2].Float64() != 2 || row[3].Int64() != 1 || row[4].Int64() != 3 {
		t.Errorf("aggregate row: %v", row)
	}
	if out.Schema[0].Name != "COUNT(*)" || out.Schema[1].Name != "SUM(a)" {
		t.Errorf("aggregate schema: %v", out.Schema)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	rel := Relation{Schema: sch("a")}
	out := Aggregate(rel, nil, []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 0}, {Func: Min, Col: 0}})
	if out.Len() != 1 || out.Rows[0][0].Int64() != 0 {
		t.Fatalf("COUNT over empty input must be 0: %v", out.Rows)
	}
	if !out.Rows[0][1].IsNull() || !out.Rows[0][2].IsNull() {
		t.Error("SUM/MIN over empty input must be NULL")
	}
}

func TestAggregateGroupBy(t *testing.T) {
	rel := Relation{Schema: sch("city", "temp"), Rows: []value.Row{
		intRow(1, 10), intRow(1, 20), intRow(2, 30),
	}}
	out := Aggregate(rel, []int{0}, []AggSpec{{Func: Avg, Col: 1, As: "avg_temp"}})
	if out.Len() != 2 {
		t.Fatalf("groups: %d", out.Len())
	}
	if out.Schema[1].Name != "avg_temp" {
		t.Errorf("alias: %v", out.Schema)
	}
	if out.Rows[0][0].Int64() != 1 || out.Rows[0][1].Float64() != 15 {
		t.Errorf("group 1: %v", out.Rows[0])
	}
	if out.Rows[1][0].Int64() != 2 || out.Rows[1][1].Float64() != 30 {
		t.Errorf("group 2: %v", out.Rows[1])
	}
}

func TestAggregateNullsIgnored(t *testing.T) {
	rel := Relation{Schema: sch("a"), Rows: []value.Row{{value.NewInt(5)}, {value.NewNull()}}}
	out := Aggregate(rel, nil, []AggSpec{{Func: Count, Col: 0}, {Func: Avg, Col: 0}})
	if out.Rows[0][0].Int64() != 1 || out.Rows[0][1].Float64() != 5 {
		t.Errorf("nulls must be ignored: %v", out.Rows[0])
	}
	// Every function over one column with NULLs, side by side on the same
	// groups: each folds only its own part of the state, and a group of
	// NULLs alone reports NULL for all but the counts.
	x, y := value.NewString("x"), value.NewString("y")
	rel = Relation{Schema: sch("g", "a"), Rows: []value.Row{
		{x, value.NewInt(5)}, {x, value.NewNull()}, {y, value.NewNull()}, {x, value.NewInt(2)},
		{x, value.NewInt(9)}, {x, value.NewNull()},
	}}
	out = Aggregate(rel, []int{0}, []AggSpec{
		{Func: Sum, Col: 1}, {Func: Min, Col: 1}, {Func: Max, Col: 1}, {Func: Avg, Col: 1},
		{Func: Count, Col: 1}, {Func: Count, Col: -1},
	})
	want := []string{"x 16 2 9 5.333333333333333 3 5", "y NULL NULL NULL NULL 0 1"}
	if len(out.Rows) != len(want) {
		t.Fatalf("%d groups, want %d", len(out.Rows), len(want))
	}
	for i, row := range out.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		if got := strings.Join(parts, " "); got != want[i] {
			t.Errorf("group %d = %q, want %q", i, got, want[i])
		}
	}
}

func TestOrderByAndLimit(t *testing.T) {
	rel := Relation{Schema: sch("a", "b"), Rows: []value.Row{intRow(2, 1), intRow(1, 2), intRow(2, 0)}}
	asc := rel.OrderBy([]int{0, 1}, []bool{false, false})
	if asc.Rows[0][0].Int64() != 1 || asc.Rows[1][1].Int64() != 0 {
		t.Errorf("asc order: %v", asc.Rows)
	}
	desc := rel.OrderBy([]int{0}, []bool{true})
	if desc.Rows[0][0].Int64() != 2 {
		t.Errorf("desc order: %v", desc.Rows)
	}
	// Original relation untouched.
	if rel.Rows[0][0].Int64() != 2 {
		t.Error("OrderBy must not mutate input")
	}
	if rel.Limit(2).Len() != 2 || rel.Limit(-1).Len() != 3 || rel.Limit(10).Len() != 3 {
		t.Error("Limit")
	}
}

// Property: join cardinality equals the number of matching pairs computed by
// a nested loop, for random single-column int joins.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(ls, rs []uint8) bool {
		l := Relation{Schema: sch("a")}
		for _, v := range ls {
			l.Rows = append(l.Rows, intRow(int64(v%8)))
		}
		r := Relation{Schema: sch("b")}
		for _, v := range rs {
			r.Rows = append(r.Rows, intRow(int64(v%8)))
		}
		want := 0
		for _, a := range l.Rows {
			for _, b := range r.Rows {
				if a[0].Int64() == b[0].Int64() {
					want++
				}
			}
		}
		return HashJoin(l, r, []int{0}, []int{0}).Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	l := Relation{Schema: sch("a", "x")}
	r := Relation{Schema: sch("b", "y")}
	for i := 0; i < 5000; i++ {
		l.Rows = append(l.Rows, intRow(int64(i%500), int64(i)))
		r.Rows = append(r.Rows, intRow(int64(i%500), int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashJoin(l, r, []int{0}, []int{0})
	}
}
