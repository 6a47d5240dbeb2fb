// Package core implements PayLess's query optimizer — the paper's primary
// contribution (§4). It binds a parsed SQL query against the catalog,
// then runs a bottom-up, cost-based dynamic program over left-deep plans
// (Algorithm 2) with bind joins as an access path, pricing every candidate
// in data-market transactions. The search space is trimmed by the paper's
// three theorems — left-deep only (Thm 1), zero-price relations first
// (Thm 2), disconnected partitions (Thm 3) — and plain accesses are
// rewritten through the semantic store (§4.2) before costing.
package core

import (
	"fmt"
	"math"
	"strings"

	"payless/internal/catalog"
	"payless/internal/region"
	"payless/internal/sqlparse"
	"payless/internal/value"
)

// Rel is one FROM-clause relation resolved against the catalog.
type Rel struct {
	// Ref is the original table reference (name + alias).
	Ref sqlparse.TableRef
	// Table is the catalog metadata.
	Table *catalog.Table
	// Schema is Table's schema with every column named "alias.Column": the
	// names its rows carry once fetched. Instances of one shape share it.
	Schema value.Schema
	// Query carries the constant predicates pushable to the data market.
	Query catalog.AccessQuery
	// Box is the bounding box of the relation's access region.
	Box region.Box
	// Boxes are the disjoint access boxes the relation decomposes into —
	// one per combination of pushable IN values (the market cannot express
	// disjunction, §1/§4.2); length 1 without IN predicates, and possibly 0
	// when every IN value falls outside the attribute's domain.
	Boxes []region.Box
	// In holds the pushable membership predicates behind Boxes.
	In []InPred
	// Residual holds constant predicates that cannot be pushed (output
	// attributes, <>, oversized IN lists); they are applied locally.
	Residual []sqlparse.Condition
}

// AccessBoxes returns the disjoint boxes the relation's access decomposes
// into. Relations without IN predicates (including hand-built ones whose
// Boxes field was never set) access their single Box.
func (r *Rel) AccessBoxes() []region.Box {
	if r.Boxes != nil {
		return r.Boxes
	}
	return []region.Box{r.Box}
}

// UnboundAttrs lists the table's bound attributes that no pushed predicate
// gives a value; a plain market scan of the relation is invalid while any
// remain.
func (r *Rel) UnboundAttrs() []string {
	var out []string
	for _, a := range r.Table.Attrs {
		if a.Binding != catalog.Bound {
			continue
		}
		if _, ok := r.Query.Pred(a.Name); !ok {
			out = append(out, a.Name)
		}
	}
	return out
}

// InPred is a pushable membership predicate on one attribute.
type InPred struct {
	Attr   string
	Values []value.Value
}

// maxDisjuncts caps the per-relation box expansion of IN predicates;
// beyond it the predicate is applied locally instead.
const maxDisjuncts = 64

// Alias returns the name the relation goes by in the query.
func (r *Rel) Alias() string {
	if r.Ref.Alias != "" {
		return r.Ref.Alias
	}
	return r.Ref.Name
}

// Join is one equi-join edge between two relations.
type Join struct {
	// L and R index BoundQuery.Rels; L < R by construction.
	L, R int
	// LAttr and RAttr are the joined column names on each side.
	LAttr, RAttr string
}

// Toward orients the edge from relation rel: rel's joined attribute, the
// relation at the other end and that relation's attribute.
func (j Join) Toward(rel int) (attr string, other int, otherAttr string) {
	if j.L == rel {
		return j.LAttr, j.R, j.RAttr
	}
	return j.RAttr, j.L, j.LAttr
}

// BoundQuery is the binder's output: the query with every name resolved.
type BoundQuery struct {
	Query *sqlparse.Query
	Rels  []*Rel
	Joins []Join
	// CrossResidual holds column-to-column conditions that are not simple
	// equi-joins; they are applied after joining.
	CrossResidual []sqlparse.Condition
	// Cols maps every column reference read after the scans — join edges,
	// cross residuals, the SELECT list with aggregate arguments, GROUP BY —
	// to its joined-schema name, "alias.Column".
	Cols map[sqlparse.ColRef]string
	// Star lists every joined-schema name in FROM order when a plain
	// SELECT list has a *; nil otherwise.
	Star []string
	// Output names the result's columns, in order.
	Output []string
	// OrderIdx and HavingIdx give the Output position each ORDER BY item
	// and each HAVING conjunct reads.
	OrderIdx, HavingIdx []int
}

// RelIndex returns the index of the relation the (possibly unqualified)
// column reference resolves to, and the column's index in its schema.
func (b *BoundQuery) RelIndex(ref sqlparse.ColRef) (rel, col int, err error) {
	if ref.Table != "" {
		for i, r := range b.Rels {
			if strings.EqualFold(r.Alias(), ref.Table) {
				c := r.Table.Schema.IndexOf(ref.Column)
				if c < 0 {
					return 0, 0, fmt.Errorf("table %s has no column %s", r.Alias(), ref.Column)
				}
				return i, c, nil
			}
		}
		return 0, 0, fmt.Errorf("unknown table %s", ref.Table)
	}
	rel, col = -1, -1
	for i, r := range b.Rels {
		if c := r.Table.Schema.IndexOf(ref.Column); c >= 0 {
			if rel >= 0 {
				return 0, 0, fmt.Errorf("ambiguous column %s", ref.Column)
			}
			rel, col = i, c
		}
	}
	if rel < 0 {
		return 0, 0, fmt.Errorf("unknown column %s", ref.Column)
	}
	return rel, col, nil
}

// read resolves a reference evaluated after the scans and records its
// joined-schema name in Cols.
func (b *BoundQuery) read(ref sqlparse.ColRef) (int, error) {
	rel, col, err := b.RelIndex(ref)
	if err != nil {
		return 0, err
	}
	if _, ok := b.Cols[ref]; !ok {
		b.Cols[ref] = b.Rels[rel].Schema[col].Name
	}
	return rel, nil
}

// Shape is the half of binding that no literal moves: the relations, join
// edges, cross residuals, every column read after the scans and the output,
// plus where each constant WHERE condition applies. One statement shape
// binds once; Shape.Bind then derives predicates and boxes per instance. A
// Shape is immutable, so instances share it and everything it resolved.
type Shape struct {
	// proto is every instance's BoundQuery but for Query and Rels; its Rels
	// carry only Ref, Table and Schema.
	proto BoundQuery
	// consts are the constant WHERE conditions; ranges the number of range
	// accumulators they fill.
	consts []constCond
	ranges int
	// err is the output's binding error, which Bind reports after any error
	// of the literal half, as a single pass over the statement would.
	err error
}

// constCond is one constant WHERE condition: its position, its relation,
// the attribute it compares (zero for a column that is not one) and, for a
// non-IN condition, its range accumulator — one per (relation, attribute),
// numbered in order of first appearance.
type constCond struct {
	cond, rel, acc int
	attr           catalog.Attribute
}

// Bind resolves a parsed query against the catalog: tables, join edges,
// pushable constant predicates and residual conditions, then every column
// the local operators read and the output they produce. A statement with an
// unknown or ambiguous reference fails here, before it is planned or spends.
func Bind(q *sqlparse.Query, cat *catalog.Catalog) (*BoundQuery, error) {
	s, err := NewShape(q, cat)
	if err != nil {
		return nil, err
	}
	return s.Bind(q)
}

// NewShape binds the literal-free half of q: every name it uses.
func NewShape(q *sqlparse.Query, cat *catalog.Catalog) (*Shape, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("query has no FROM clause")
	}
	s := &Shape{proto: BoundQuery{Query: q, Cols: make(map[sqlparse.ColRef]string)}}
	b := &s.proto
	for _, ref := range q.From {
		t, ok := cat.Lookup(ref.Name)
		if !ok {
			return nil, fmt.Errorf("unknown table %s", ref.Name)
		}
		r := &Rel{Ref: ref, Table: t}
		for _, o := range b.Rels {
			if strings.EqualFold(o.Alias(), r.Alias()) {
				return nil, fmt.Errorf("duplicate table alias %s", r.Alias())
			}
		}
		r.Schema = make(value.Schema, len(t.Schema))
		for i, c := range t.Schema {
			r.Schema[i] = value.Column{Name: r.Alias() + "." + c.Name, Type: c.Type}
		}
		b.Rels = append(b.Rels, r)
	}
	for i, cond := range q.Where {
		if cond.IsJoin() {
			li, err := b.read(cond.Left)
			if err != nil {
				return nil, err
			}
			ri, err := b.read(*cond.RightCol)
			if err != nil {
				return nil, err
			}
			if cond.Op != sqlparse.OpEq || li == ri {
				b.CrossResidual = append(b.CrossResidual, cond)
				continue
			}
			lattr, rattr := cond.Left.Column, cond.RightCol.Column
			if li > ri {
				li, ri = ri, li
				lattr, rattr = rattr, lattr
			}
			b.Joins = append(b.Joins, Join{L: li, R: ri, LAttr: lattr, RAttr: rattr})
			continue
		}
		ri, _, err := b.RelIndex(cond.Left)
		if err != nil {
			return nil, err
		}
		c := constCond{cond: i, rel: ri, acc: -1}
		c.attr, _ = b.Rels[ri].Table.Attr(cond.Left.Column)
		if !cond.IsIn() {
			for _, o := range s.consts {
				if o.acc >= 0 && o.rel == ri && strings.EqualFold(q.Where[o.cond].Left.Column, cond.Left.Column) {
					c.acc = o.acc
					break
				}
			}
			if c.acc < 0 {
				c.acc = s.ranges
				s.ranges++
			}
		}
		s.consts = append(s.consts, c)
	}
	s.err = b.bindOutput()
	return s, nil
}

// Bind is the literal half of binding: it derives each relation's pushable
// predicates, boxes and residuals from q's literals. q must have the shape's
// statement shape — the same AST but for literal values.
func (s *Shape) Bind(q *sqlparse.Query) (*BoundQuery, error) {
	b := s.proto
	b.Query = q
	rels := make([]Rel, len(s.proto.Rels))
	b.Rels = make([]*Rel, len(rels))
	for i, r := range s.proto.Rels {
		rels[i] = Rel{Ref: r.Ref, Table: r.Table, Schema: r.Schema,
			Query: catalog.AccessQuery{Dataset: r.Table.Dataset, Table: r.Table.Name}}
		b.Rels[i] = &rels[i]
	}
	// Range accumulation per (relation, attribute), kept in the order the
	// attribute's first constant non-IN condition appears in WHERE: that is
	// the order the ranges join the access query's predicates.
	type rangeAcc struct {
		rel          int
		attr         string
		ranged       bool
		lo, hi       int64
		hasLo, hasHi bool
	}
	var ranges []rangeAcc
	if s.ranges > 0 {
		ranges = make([]rangeAcc, s.ranges)
	}
	for _, c := range s.consts {
		cond := q.Where[c.cond]
		rel, a := b.Rels[c.rel], c.attr
		if cond.IsIn() {
			if pushableIn(a, cond) {
				rel.In = append(rel.In, InPred{Attr: a.Name, Values: dedupValues(a, cond.InVals)})
			} else {
				rel.Residual = append(rel.Residual, cond)
			}
			continue
		}
		if !pushable(a, cond) {
			rel.Residual = append(rel.Residual, cond)
			continue
		}
		if cond.Op == sqlparse.OpEq {
			eq := cond.RightVal
			if v, ok := numericPoint(a, *eq); ok && v != *eq {
				eq = new(value.Value)
				*eq = v
			}
			// A Float left here (non-integral) has no coordinate: the
			// relation matches nothing below.
			rel.Query.Preds = append(rel.Query.Preds, catalog.Pred{Attr: a.Name, Eq: eq})
			continue
		}
		r := &ranges[c.acc]
		if !r.ranged {
			r.rel, r.attr, r.ranged = c.rel, a.Name, true
		}
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
	for i := range ranges {
		r := &ranges[i]
		if !r.ranged {
			continue
		}
		p := catalog.Pred{Attr: r.attr}
		if r.hasLo {
			p.Lo = &r.lo
		}
		if r.hasHi {
			p.Hi = &r.hi
		}
		b.Rels[r.rel].Query.Preds = append(b.Rels[r.rel].Query.Preds, p)
	}
	for _, r := range b.Rels {
		// Equality predicates on values outside the attribute's domain can
		// never match; the relation contributes no rows and no calls.
		emptyMatch := false
		kept := r.Query.Preds[:0]
		for _, p := range r.Query.Preds {
			if p.Eq != nil {
				if a, ok := r.Table.Attr(p.Attr); ok && a.Binding != catalog.Output {
					coord, err := a.Coord(*p.Eq)
					if err != nil || !a.FullInterval().ContainsCoord(coord) {
						emptyMatch = true
						continue
					}
				}
			}
			kept = append(kept, p)
		}
		r.Query.Preds = kept
		box, err := catalog.BoxFor(r.Table, r.Query)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", r.Alias(), err)
		}
		r.Box = box
		if emptyMatch {
			r.Boxes = []region.Box{}
			continue
		}
		if err := expandInBoxes(r); err != nil {
			return nil, fmt.Errorf("table %s: %w", r.Alias(), err)
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	return &b, nil
}

// bindOutput resolves the SELECT list and GROUP BY, names the output
// columns, and points every ORDER BY item and HAVING conjunct at one.
// Group columns are named by their query text and aggregates by their alias
// or SELECT text; an aggregate query drops plain items that are not
// grouped. A plain item is named by its alias or joined-schema name, and
// SELECT * lists every column in FROM order.
func (b *BoundQuery) bindOutput() error {
	q := b.Query
	agg := q.HasAggregates()
	if !agg && len(q.Having) > 0 {
		return fmt.Errorf("HAVING requires aggregation")
	}
	b.Output = make([]string, 0, len(q.GroupBy)+len(q.Select))
	for _, g := range q.GroupBy {
		if _, err := b.read(g); err != nil {
			return err
		}
		if agg {
			b.Output = append(b.Output, g.String())
		}
	}
	star := false
	for _, item := range q.Select {
		if item.Star {
			star = true
			continue
		}
		if !item.AggStar {
			if _, err := b.read(item.Col); err != nil {
				return err
			}
		}
		// An aggregate query outputs its aggregates after the group columns
		// and drops plain items; a plain query outputs its plain items.
		name := item.Alias
		switch {
		case agg != (item.Agg != sqlparse.AggNone):
			continue
		case name == "" && agg:
			name = item.String()
		case name == "":
			name = b.Cols[item.Col]
		}
		b.Output = append(b.Output, name)
	}
	if star && !agg {
		for _, r := range b.Rels {
			for _, c := range r.Table.Schema {
				b.Star = append(b.Star, r.Alias()+"."+c.Name)
			}
		}
		b.Output = b.Star
	}
	for _, h := range q.Having {
		i := b.outputIndex(h.Item.String())
		if i < 0 && h.Item.Agg == sqlparse.AggNone {
			// A plain column may appear qualified in the output.
			if i = b.outputIndex(h.Item.Col.Column); i < 0 {
				i, _ = b.outputSuffix(h.Item.Col.Column)
			}
		}
		if i < 0 {
			return fmt.Errorf("HAVING column %s not in output", h.Item)
		}
		b.HavingIdx = append(b.HavingIdx, i)
	}
	for _, o := range q.OrderBy {
		i := b.outputIndex(o.Col.Column)
		if i < 0 && o.Col.Table != "" {
			i = b.outputIndex(o.Col.String())
		} else if i < 0 {
			if j, n := b.outputSuffix(o.Col.Column); n == 1 {
				i = j
			}
		}
		if i < 0 {
			return fmt.Errorf("ORDER BY column %s not in output", o.Col)
		}
		b.OrderIdx = append(b.OrderIdx, i)
	}
	return nil
}

// outputIndex returns the position of the first output column named name,
// ignoring case, or -1.
func (b *BoundQuery) outputIndex(name string) int {
	for i, n := range b.Output {
		if strings.EqualFold(n, name) {
			return i
		}
	}
	return -1
}

// outputSuffix finds the output columns named "<anything>.col", ignoring
// case: the first one's position (-1 if none) and how many there are.
func (b *BoundQuery) outputSuffix(col string) (first, n int) {
	first = -1
	for i, name := range b.Output {
		k := len(name) - len(col)
		if k > 0 && name[k-1] == '.' && strings.EqualFold(name[k:], col) {
			if n == 0 {
				first = i
			}
			n++
		}
	}
	return first, n
}

// expandInBoxes decomposes the relation's base box along its IN predicates
// into one box per value combination. Oversized expansions fall back to
// residual evaluation; values outside the attribute's domain contribute no
// box (they can match nothing).
func expandInBoxes(r *Rel) error {
	if len(r.In) == 0 {
		r.Boxes = []region.Box{r.Box}
		return nil
	}
	boxes := []region.Box{r.Box}
	var kept []InPred
	for _, p := range r.In {
		dim, attr := r.Table.Dim(p.Attr)
		if dim < 0 {
			return fmt.Errorf("IN attribute %s is not queryable", p.Attr)
		}
		if len(boxes)*len(p.Values) > maxDisjuncts {
			// Too many disjuncts: evaluate this membership locally.
			cond := sqlparse.Condition{Left: sqlparse.ColRef{Column: p.Attr}, Op: sqlparse.OpEq, InVals: p.Values}
			r.Residual = append(r.Residual, cond)
			continue
		}
		var next []region.Box
		for _, b := range boxes {
			for _, v := range p.Values {
				coord, err := attr.Coord(v)
				if err != nil {
					continue // outside the domain: matches nothing
				}
				iv, ok := region.Point(coord).Intersect(b.Dims[dim])
				if !ok {
					continue // excluded by another predicate on the attribute
				}
				nb := b.Clone()
				nb.Dims[dim] = iv
				next = append(next, nb)
			}
		}
		boxes = next
		kept = append(kept, p)
	}
	r.In = kept
	r.Boxes = boxes
	if bb, ok := region.BoundingBox(boxes); ok {
		r.Box = bb
	} else {
		// Nothing can match; keep the base box for width arithmetic but
		// remember the empty access set.
		r.Boxes = []region.Box{}
	}
	return nil
}

// dedupValues removes duplicate IN values (value.ExactKey), preserving
// order. On a numeric attribute an integral Float becomes its Int and a
// non-integral one, which matches nothing, is dropped.
func dedupValues(a catalog.Attribute, vals []value.Value) []value.Value {
	seen := make(map[value.Value]bool, 8)
	out := make([]value.Value, 0, len(vals))
	for _, v := range vals {
		v, ok := numericPoint(a, v)
		if !ok {
			continue
		}
		k := value.ExactKey.Canonical(v)
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// pushableIn reports whether a membership predicate can decompose into
// market calls: the attribute must be queryable and the values must be
// point-bindable (strings for categorical, numbers for numeric).
func pushableIn(a catalog.Attribute, cond sqlparse.Condition) bool {
	if a.Name == "" || a.Binding == catalog.Output {
		return false
	}
	for _, v := range cond.InVals {
		if a.Class == catalog.NumericAttr && v.K == value.String {
			return false
		}
	}
	return true
}

// pushable reports whether a constant condition can travel to the market as
// part of an access query: the attribute must be queryable, the operator
// must map onto point/range access, and a numeric attribute's literal must
// be a number (a literal is a number or a string).
func pushable(a catalog.Attribute, cond sqlparse.Condition) bool {
	if a.Name == "" || a.Binding == catalog.Output {
		return false
	}
	switch cond.Op {
	case sqlparse.OpEq:
		if a.Class == catalog.CategoricalAttr {
			return true
		}
		return cond.RightVal.K != value.String
	case sqlparse.OpGe, sqlparse.OpGt, sqlparse.OpLe, sqlparse.OpLt:
		return a.Class == catalog.NumericAttr && cond.RightVal.K != value.String
	default:
		return false
	}
}

// numericPoint returns the coordinate value a numeric attribute's equality
// literal v names: an integral Float becomes its Int. ok is false for a
// Float no int64 equals, which matches nothing. Any other value is itself.
func numericPoint(a catalog.Attribute, v value.Value) (value.Value, bool) {
	if a.Class != catalog.NumericAttr || v.K != value.Float {
		return v, true
	}
	f := v.Float64()
	if f != math.Trunc(f) || f < math.MinInt64 || f >= math.MaxInt64 {
		return v, false
	}
	return value.NewInt(int64(f)), true
}

// rangeBound returns the inclusive integer bound a range condition sets on
// a numeric attribute: the low bound for >= and >, the high one for <= and
// <. Coordinates are int64, so a Float rounds inward (>= 1.5 is >= 2, < 2.0
// is <= 1), clamped to just outside the attribute's domain, which bounds it
// as any farther value would.
func rangeBound(a catalog.Attribute, op sqlparse.CompareOp, v value.Value) int64 {
	var step int64 // past a strict low bound, before a strict high one
	switch op {
	case sqlparse.OpGt:
		step = 1
	case sqlparse.OpLt:
		step = -1
	}
	if v.K == value.Int {
		return v.Int64() + step
	}
	f := math.Floor(v.Float64())
	if op == sqlparse.OpGe || op == sqlparse.OpLt {
		f = math.Ceil(v.Float64())
	}
	full := a.FullInterval()
	return int64(max(float64(full.Lo-1), min(f+float64(step), float64(full.Hi))))
}
