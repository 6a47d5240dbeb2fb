package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/region"
	"payless/internal/sqlparse"
	"payless/internal/value"
	"payless/internal/workload"
)

// This file keeps a second derivation of a bound relation's access boxes,
// the one the binder used while each relation also carried an access query:
// the constant conditions become per-attribute predicates (equalities in
// WHERE order, then one accumulated range per attribute), refBoxFor maps
// each attribute's first satisfiable predicate onto the box, and refExpand
// splits the box along the IN lists. Shape.Bind intersects every condition
// straight into the box instead; the two must agree on every statement.

// refRel is what the reference derivation gives one relation.
type refRel struct {
	Box      region.Box
	Boxes    []region.Box
	Residual []sqlparse.Condition
	Unbound  []string
}

type refIn struct {
	attr string
	vals []value.Value
}

// refBind derives every relation's boxes, residuals and unbound attributes
// from q's constant conditions, resolved against the shape's relations. It
// fails, like Shape.Bind, on the first literal whose kind cannot compare.
func refBind(s *Shape, q *sqlparse.Query) ([]refRel, error) {
	rels := s.proto.Rels
	out := make([]refRel, len(rels))
	queries := make([]catalog.AccessQuery, len(rels))
	ins := make([][]refIn, len(rels))
	// One accumulator per (relation, column), numbered in order of the
	// column's first constant non-IN condition.
	type rangeAcc struct {
		rel          int
		col, attr    string
		ranged       bool
		lo, hi       int64
		hasLo, hasHi bool
	}
	var ranges []*rangeAcc
	for _, cond := range q.Where {
		if cond.IsJoin() {
			continue
		}
		ri, ci, err := s.proto.RelIndex(cond.Left)
		if err != nil {
			return nil, err
		}
		if err := typeCheck(rels[ri].Schema[ci].Type, cond); err != nil {
			return nil, err
		}
		a, _ := rels[ri].Table.Attr(cond.Left.Column)
		if cond.IsIn() {
			if pushable(a, cond) {
				ins[ri] = append(ins[ri], refIn{a.Name, dedupValues(a, cond.InVals)})
			} else {
				out[ri].Residual = append(out[ri].Residual, cond)
			}
			continue
		}
		var r *rangeAcc
		for _, o := range ranges {
			if o.rel == ri && strings.EqualFold(o.col, cond.Left.Column) {
				r = o
				break
			}
		}
		if r == nil {
			r = &rangeAcc{rel: ri, col: cond.Left.Column}
			ranges = append(ranges, r)
		}
		if !pushable(a, cond) {
			out[ri].Residual = append(out[ri].Residual, cond)
			continue
		}
		if cond.Op == sqlparse.OpEq {
			eq := *cond.RightVal
			if v, ok := numericPoint(a, eq); ok {
				eq = v
			}
			queries[ri].Preds = append(queries[ri].Preds, catalog.Pred{Attr: a.Name, Eq: &eq})
			continue
		}
		r.ranged, r.attr = true, a.Name
		v := rangeBound(a, cond.Op, *cond.RightVal)
		switch cond.Op {
		case sqlparse.OpGe, sqlparse.OpGt:
			if !r.hasLo || r.lo < v {
				r.lo, r.hasLo = v, true
			}
		case sqlparse.OpLe, sqlparse.OpLt:
			if !r.hasHi || r.hi > v {
				r.hi, r.hasHi = v, true
			}
		}
	}
	for _, r := range ranges {
		if !r.ranged {
			continue
		}
		p := catalog.Pred{Attr: r.attr}
		if r.hasLo {
			p.Lo = catalog.IntPtr(r.lo)
		}
		if r.hasHi {
			p.Hi = catalog.IntPtr(r.hi)
		}
		queries[r.rel].Preds = append(queries[r.rel].Preds, p)
	}
	for i, rel := range rels {
		o := &out[i]
		// Keep each attribute's first satisfiable predicate; any predicate
		// no value satisfies, or one disjoint from the first, matches nothing.
		emptyMatch := false
		var kept []catalog.Pred
	preds:
		for _, p := range queries[i].Preds {
			a, _ := rel.Table.Attr(p.Attr)
			iv, err := refInterval(a, p)
			if err != nil || iv.Empty() {
				emptyMatch = true
				continue
			}
			for _, k := range kept {
				if k.Attr == p.Attr {
					first, _ := refInterval(a, k)
					if _, ok := first.Intersect(iv); !ok {
						emptyMatch = true
					}
					continue preds
				}
			}
			kept = append(kept, p)
		}
		o.Box = refBoxFor(rel.Table, kept)
		for _, a := range rel.Table.Attrs {
			if _, ok := (catalog.AccessQuery{Preds: kept}).Pred(a.Name); a.Binding == catalog.Bound && !ok {
				o.Unbound = append(o.Unbound, a.Name)
			}
		}
		if emptyMatch {
			o.Boxes = []region.Box{}
			continue
		}
		refExpand(o, rel.Table, ins[i])
	}
	return out, nil
}

// refInterval returns the coordinates on a's axis that satisfy p, clipped
// to its domain; it fails for an equality value with no coordinate.
func refInterval(a catalog.Attribute, p catalog.Pred) (region.Interval, error) {
	full := a.FullInterval()
	if p.Eq != nil {
		c, err := a.Coord(*p.Eq)
		if err != nil {
			return region.Interval{}, err
		}
		iv, _ := region.Point(c).Intersect(full)
		return iv, nil
	}
	iv := full
	if p.Lo != nil && *p.Lo > iv.Lo {
		iv.Lo = *p.Lo
	}
	if p.Hi != nil && *p.Hi < iv.Hi-1 {
		iv.Hi = *p.Hi + 1
	}
	return iv, nil
}

// refBoxFor maps satisfiable predicates, at most one an attribute, onto
// t's queryable space; an attribute without one spans its domain.
func refBoxFor(t *catalog.Table, preds []catalog.Pred) region.Box {
	q := catalog.AccessQuery{Preds: preds}
	dims := make([]region.Interval, 0, t.NumDims())
	for _, a := range t.Attrs {
		if a.Binding == catalog.Output {
			continue
		}
		p, ok := q.Pred(a.Name)
		if !ok {
			dims = append(dims, a.FullInterval())
			continue
		}
		iv, _ := refInterval(a, p)
		dims = append(dims, iv)
	}
	return region.Box{Dims: dims}
}

// refExpand splits o.Box into one box per combination of IN values, in
// order; an IN list that would pass maxDisjuncts boxes becomes a residual.
func refExpand(o *refRel, t *catalog.Table, ins []refIn) {
	if len(ins) == 0 {
		o.Boxes = []region.Box{o.Box}
		return
	}
	boxes := []region.Box{o.Box}
	for _, p := range ins {
		dim, attr := t.Dim(p.attr)
		if len(boxes)*len(p.vals) > maxDisjuncts {
			cond := sqlparse.Condition{Left: sqlparse.ColRef{Column: p.attr}, Op: sqlparse.OpEq, InVals: p.vals}
			o.Residual = append(o.Residual, cond)
			continue
		}
		var next []region.Box
		for _, b := range boxes {
			for _, v := range p.vals {
				coord, err := attr.Coord(v)
				if err != nil {
					continue
				}
				iv, ok := region.Point(coord).Intersect(b.Dims[dim])
				if !ok {
					continue
				}
				nb := b.Clone()
				nb.Dims[dim] = iv
				next = append(next, nb)
			}
		}
		boxes = next
	}
	o.Boxes = boxes
	if bb, ok := region.BoundingBox(boxes); ok {
		o.Box = bb
	} else {
		o.Boxes = []region.Box{}
	}
}

// checkBindRef binds q through its shape and requires every relation's
// Box, Boxes, Residual and UnboundAttrs to equal the reference's. A
// statement NewShape refuses is out of scope; a HAVING literal may fail
// Shape.Bind where the reference, which reads WHERE only, does not.
func checkBindRef(t *testing.T, q *sqlparse.Query, cat *catalog.Catalog) {
	t.Helper()
	s, err := NewShape(q, cat)
	if err != nil {
		return
	}
	want, wantErr := refBind(s, q)
	got, err := s.Bind(q)
	switch {
	case wantErr != nil && err == nil:
		t.Fatalf("%s: bound, the reference fails: %v", q, wantErr)
	case err != nil && wantErr == nil && len(q.Having) == 0:
		t.Fatalf("%s: %v, the reference binds", q, err)
	case err != nil:
		return
	}
	for i, r := range got.Rels {
		w := want[i]
		if !reflect.DeepEqual(r.Box, w.Box) || !reflect.DeepEqual(r.Boxes, w.Boxes) {
			t.Fatalf("%s: %s box %v boxes %v, reference box %v boxes %v", q, r.Alias(), r.Box, r.Boxes, w.Box, w.Boxes)
		}
		if !reflect.DeepEqual(r.Residual, w.Residual) {
			t.Fatalf("%s: %s residual %v, reference %v", q, r.Alias(), r.Residual, w.Residual)
		}
		if u := r.UnboundAttrs(); !reflect.DeepEqual(u, w.Unbound) {
			t.Fatalf("%s: %s unbound %v, reference %v", q, r.Alias(), u, w.Unbound)
		}
	}
}

func checkBindRefSQL(t *testing.T, sql string, cat *catalog.Catalog) {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	checkBindRef(t, q, cat)
}

// perturb returns a literal of v's kind, or now and then of the other
// numeric kind: v itself, a neighbour, a domain edge or a value far
// outside any domain, or for a string another of the statement's strings
// or one no domain holds.
func perturb(rng *rand.Rand, v value.Value, strs []value.Value) value.Value {
	switch v.K {
	case value.String:
		switch rng.Intn(3) {
		case 0:
			return v
		case 1:
			return strs[rng.Intn(len(strs))]
		default:
			return value.NewString("Atlantis")
		}
	case value.Int, value.Float:
		n := v.AsInt()
		switch rng.Intn(8) {
		case 0:
			return v
		case 1:
			return value.NewInt(n + int64(rng.Intn(21)-10))
		case 2:
			return value.NewInt(n - 1_000_000_000)
		case 3:
			return value.NewInt(n + 1_000_000_000)
		case 4:
			return value.NewFloat(float64(n) + 0.5)
		case 5:
			return value.NewFloat(float64(n + int64(rng.Intn(5)-2)))
		case 6:
			return value.NewInt(-n)
		default:
			return value.NewInt(n * 2)
		}
	}
	return v
}

// tpchCatalog registers the TPC-H tables at the default scale.
func tpchCatalog(t testing.TB) (*workload.TPCH, *catalog.Catalog) {
	d := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	cat := catalog.New()
	for _, tb := range []*catalog.Table{d.Customer, d.Orders, d.Lineitem, d.Part, d.Supplier, d.PartSupp, d.Nation, d.Region} {
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	return d, cat
}

// TestBindMatchesReference: the WHW and TPC-H templates, each instance
// once as generated and then with random literal sets (neighbours, domain
// edges, far-out and non-integral numbers, foreign strings), plus the edge
// cases the derivation's rules exist for, bind to the reference's boxes,
// residuals and unbound attributes.
func TestBindMatchesReference(t *testing.T) {
	w, whwCat := whwCatalog(t)
	d, tpchCat := tpchCatalog(t)
	for _, set := range []struct {
		templates []workload.Template
		cat       *catalog.Catalog
	}{{w.Templates(), whwCat}, {d.Templates(), tpchCat}} {
		for _, tpl := range set.templates {
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 40; i++ {
				sql := tpl.Instantiate(rng)
				checkBindRefSQL(t, sql, set.cat)
				tmpl, err := sqlparse.NewTemplate(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				_, lits, err := sqlparse.Scan(sql, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				var strs []value.Value
				for _, l := range lits {
					if l.Val.K == value.String {
						strs = append(strs, l.Val)
					}
				}
				for j := 0; j < 10; j++ {
					mixed := append([]sqlparse.Literal(nil), lits...)
					for k := range mixed {
						mixed[k].Val = perturb(rng, lits[k].Val, strs)
					}
					q, err := tmpl.Instance(mixed)
					if err != nil {
						continue // a LIMIT no statement could carry
					}
					checkBindRef(t, q, set.cat)
				}
			}
		}
	}
	var many []string
	for i := 1; i <= 70; i++ {
		many = append(many, fmt.Sprint(20140400+i))
	}
	edges := []string{
		// Contradictions, in both orders, and empty ranges.
		"SELECT * FROM Weather WHERE Date = 20140405 AND Date >= 20140410",
		"SELECT * FROM Weather WHERE Date >= 20140410 AND Date = 20140405",
		"SELECT * FROM Weather WHERE Date = 20140405 AND Date = 20140406",
		"SELECT * FROM Weather WHERE Date >= 20140410 AND Date <= 20140405 AND Country = 'Country01'",
		"SELECT * FROM Weather WHERE Date > 20140401 AND Date < 20140402",
		"SELECT * FROM Weather WHERE Date = 20140405 AND Date >= 20140401 AND Date <= 20140410",
		// Out-of-domain and non-integral literals.
		"SELECT * FROM Weather WHERE Date = 99999999 AND Date = 20140405",
		"SELECT * FROM Weather WHERE Date = 99999999 AND Date >= 20140403 AND Date <= 20140406",
		"SELECT * FROM Weather WHERE Date = 99999999 AND Date >= 20140410 AND Date <= 20140405",
		"SELECT * FROM Weather WHERE Country = 'Atlantis' AND Date >= 20140403",
		"SELECT * FROM Weather WHERE Date = 20140405.5 AND Country = 'Country01'",
		"SELECT * FROM Weather WHERE Date = 20140405.0 AND Date <= 20140405.9",
		"SELECT * FROM Weather WHERE Date > 9223372036854775807",
		"SELECT * FROM Weather WHERE Date < -9223372036854775808",
		"SELECT * FROM Pollution WHERE Rank >= -5 AND Rank <= 1000",
		// IN lists: duplicates, categorical, oversized, with a range on
		// the same attribute, out of domain, two on one attribute.
		"SELECT * FROM Weather WHERE Date IN (20140405, 20140403, 20140405, 20140403.0, 20140404.5)",
		"SELECT * FROM Weather WHERE Country IN ('Country02', 'Atlantis', 'Country01', 'Country02')",
		"SELECT * FROM Weather WHERE Date IN (" + strings.Join(many, ", ") + ")",
		"SELECT * FROM Weather WHERE Country IN ('Country01', 'Country02') AND Date IN (" + strings.Join(many[:40], ", ") + ")",
		"SELECT * FROM Weather WHERE Country IN ('Atlantis') AND Date IN (" + strings.Join(many, ", ") + ")",
		"SELECT * FROM Weather WHERE Date IN (20140402, 20140405, 20140420) AND Date >= 20140404 AND Date <= 20140410",
		"SELECT * FROM Weather WHERE Date IN (20140402, 20140405) AND Date IN (20140405, 20140406)",
		"SELECT * FROM Weather WHERE Date IN (20140402, 20140405) AND Date = 20140407",
		"SELECT * FROM Pollution WHERE Rank IN (500, 600) AND ZipCode IN ('a', 'b')",
		// Residuals: output attributes, <> and residual-only columns.
		"SELECT * FROM Weather WHERE Temperature > 3 AND Country <> 'Country01' AND Date >= 20140403 AND Temperature < 9",
		"SELECT * FROM Weather w, Station s WHERE w.StationID = s.StationID AND s.City <> 'x' AND w.Date = 20140402 AND s.Country = 'Country01'",
	}
	for _, sql := range edges {
		checkBindRefSQL(t, sql, whwCat)
	}
	// A bound attribute given by IN alone stays unbound; one given by an
	// equality or a range does not, unless no value satisfies it.
	tb := numTable("B", 1000, "k", "v")
	setBound(tb, "k")
	cat := catalog.New()
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT * FROM B WHERE k IN (1, 2)",
		"SELECT * FROM B WHERE k = 3",
		"SELECT * FROM B WHERE k >= 1",
		"SELECT * FROM B WHERE k = 500",
		"SELECT * FROM B WHERE k >= 50 AND k <= 40",
		"SELECT * FROM B WHERE k IN (1, 2) AND k >= 2",
		"SELECT * FROM B WHERE v = 4",
	} {
		checkBindRefSQL(t, sql, cat)
	}
}
