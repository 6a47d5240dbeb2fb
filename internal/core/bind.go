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
	"cmp"
	"fmt"
	"math"
	"slices"
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
	// Box is the bounding box of the relation's access region: the table's
	// full box with every pushed equality and range intersected into its
	// attribute's dimension, then narrowed to the hull of Boxes.
	Box region.Box
	// Boxes are the disjoint access boxes the relation decomposes into —
	// one per combination of pushable IN values (the market cannot express
	// disjunction, §1/§4.2); length 1 without IN predicates, and 0 when no
	// value satisfies the pushed conditions. Every call and local scan of
	// the relation reads one of them.
	Boxes []region.Box
	// Residual holds constant predicates that cannot be pushed (output
	// attributes, <>, oversized IN lists); they are applied locally.
	Residual []sqlparse.Condition
	// narrowed has bit d set once a satisfiable equality or range narrowed
	// box dimension d.
	narrowed uint64
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

// UnboundAttrs lists the table's bound attributes that no satisfiable
// pushed equality or range gives a value (an IN list does not); a plain
// market scan of the relation is invalid while any remain.
func (r *Rel) UnboundAttrs() []string {
	var out []string
	d := 0
	for _, a := range r.Table.Attrs {
		if a.Binding == catalog.Output {
			continue
		}
		if a.Binding == catalog.Bound && r.narrowed&(1<<d) == 0 {
			out = append(out, a.Name)
		}
		d++
	}
	return out
}

// narrow intersects iv, the coordinates a pushed equality or range allows,
// into box dimension d. When nothing is left the relation matches nothing
// and the dimension keeps its extent: the first satisfiable condition's.
func (r *Rel) narrow(d int, iv region.Interval) {
	if x, ok := r.Box.Dims[d].Intersect(iv); ok {
		r.Box.Dims[d] = x
		r.narrowed |= 1 << d
	} else {
		r.Boxes = []region.Box{}
	}
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
// plus where each constant condition applies. One statement shape binds
// once; Shape.Bind then derives boxes per instance. A Shape is immutable,
// so instances share it and everything it resolved.
type Shape struct {
	// proto is every instance's BoundQuery but for Query and Rels; its Rels
	// carry only Ref, Table and Schema.
	proto BoundQuery
	// consts are the constant WHERE conditions in the order Bind applies
	// them: per relation, the residuals, then each attribute's equalities
	// and then its ranges, then the IN lists; WHERE order within each.
	consts []constCond
	// having is the type of the output column each HAVING conjunct reads.
	having []value.Kind
}

// constCond is one constant WHERE condition: its position, its relation,
// its column's type, the attribute it compares (zero for a column that is
// not one) and, when pushed, the box dimension it narrows. rank orders a
// relation's conditions for Bind: -1 for a residual, 2·dim for an equality,
// 2·dim+1 for a range bound and MaxInt for an IN list.
type constCond struct {
	cond, rel, dim, rank int
	typ                  value.Kind
	attr                 catalog.Attribute
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
		ri, ci, err := b.RelIndex(cond.Left)
		if err != nil {
			return nil, err
		}
		c := constCond{cond: i, rel: ri, rank: -1, typ: b.Rels[ri].Schema[ci].Type}
		c.attr, _ = b.Rels[ri].Table.Attr(cond.Left.Column)
		if pushable(c.attr, cond) {
			c.dim, _ = b.Rels[ri].Table.Dim(c.attr.Name)
			switch {
			case cond.IsIn():
				c.rank = math.MaxInt
			case cond.Op == sqlparse.OpEq:
				c.rank = 2 * c.dim
			default:
				c.rank = 2*c.dim + 1
			}
		}
		s.consts = append(s.consts, c)
	}
	slices.SortStableFunc(s.consts, func(x, y constCond) int {
		return cmp.Or(cmp.Compare(x.rel, y.rel), cmp.Compare(x.rank, y.rank))
	})
	var err error
	if s.having, err = b.bindOutput(); err != nil {
		return nil, err
	}
	return s, nil
}

// Bind is the literal half of binding: it derives each relation's boxes and
// residuals from q's literals. Each relation starts at its table's full box;
// an equality or an attribute's accumulated range intersects into its
// dimension, and the IN lists then split the box into one per value. A
// condition no value satisfies — a literal with no coordinate, two
// different points, a point outside the range, an empty range — leaves the
// relation no boxes: it contributes no rows and no calls. q must have the
// shape's statement shape — the same AST but for literal values.
func (s *Shape) Bind(q *sqlparse.Query) (*BoundQuery, error) {
	for i, h := range q.Having {
		if !compares(s.having[i], h.Val) {
			return nil, typeError(h.Item, s.having[i], h.Val)
		}
	}
	b := s.proto
	b.Query = q
	rels := make([]Rel, len(s.proto.Rels))
	b.Rels = make([]*Rel, len(rels))
	for i, r := range s.proto.Rels {
		rels[i] = Rel{Ref: r.Ref, Table: r.Table, Schema: r.Schema, Box: r.Table.FullBox()}
		b.Rels[i] = &rels[i]
	}
	var rng region.Interval // the range accumulating on one attribute
	for i := range s.consts {
		c := &s.consts[i]
		cond := q.Where[c.cond]
		if err := typeCheck(c.typ, cond); err != nil {
			return nil, err
		}
		r := b.Rels[c.rel]
		switch {
		case c.rank < 0:
			r.Residual = append(r.Residual, cond)
		case cond.IsIn():
			if r.Boxes == nil {
				r.Boxes = []region.Box{r.Box}
			}
			vals := dedupValues(c.attr, cond.InVals)
			if len(r.Boxes)*len(vals) > maxDisjuncts {
				cond = sqlparse.Condition{Left: sqlparse.ColRef{Column: c.attr.Name}, Op: sqlparse.OpEq, InVals: vals}
				r.Residual = append(r.Residual, cond)
				continue
			}
			r.Boxes = split(r.Boxes, c.dim, c.attr, vals)
		case cond.Op == sqlparse.OpEq:
			// A Float numericPoint leaves (non-integral) has no coordinate.
			v, _ := numericPoint(c.attr, *cond.RightVal)
			if coord, err := c.attr.Coord(v); err == nil {
				r.narrow(c.dim, region.Point(coord))
			} else {
				r.Boxes = []region.Box{}
			}
		default:
			// An attribute's range bounds are adjacent: the first starts
			// the accumulated range, the last intersects it into the box.
			if i == 0 || !s.adjacent(i-1) {
				rng = c.attr.FullInterval()
			}
			v := rangeBound(c.attr, cond.Op, *cond.RightVal)
			if cond.Op == sqlparse.OpGe || cond.Op == sqlparse.OpGt {
				rng.Lo = max(rng.Lo, v)
			} else if v < rng.Hi-1 {
				rng.Hi = v + 1
			}
			if i+1 == len(s.consts) || !s.adjacent(i) {
				r.narrow(c.dim, rng)
			}
		}
	}
	for _, r := range b.Rels {
		if r.Boxes == nil {
			r.Boxes = []region.Box{r.Box}
		} else if len(r.Boxes) > 0 {
			r.Box, _ = region.BoundingBox(r.Boxes)
		}
	}
	return &b, nil
}

// adjacent reports whether constant conditions i and i+1 are applied
// together: the same relation and rank, so the same kind of condition on
// the same attribute.
func (s *Shape) adjacent(i int) bool {
	return s.consts[i].rel == s.consts[i+1].rel && s.consts[i].rank == s.consts[i+1].rank
}

// split returns, for each box and then each value, the box narrowed on
// dimension d to the value's coordinate; a value outside the box or the
// attribute's domain contributes none.
func split(boxes []region.Box, d int, a catalog.Attribute, vals []value.Value) []region.Box {
	next := make([]region.Box, 0, len(boxes)*len(vals))
	for _, b := range boxes {
		for _, v := range vals {
			coord, err := a.Coord(v)
			if err != nil {
				continue
			}
			if iv, ok := region.Point(coord).Intersect(b.Dims[d]); ok {
				nb := b.Clone()
				nb.Dims[d] = iv
				next = append(next, nb)
			}
		}
	}
	return next
}

// bindOutput resolves the SELECT list and GROUP BY, names the output
// columns, and points every ORDER BY item and HAVING conjunct at one.
// Group columns are named by their query text and aggregates by their alias
// or SELECT text; an aggregate query drops plain items that are not
// grouped. A plain item is named by its alias or joined-schema name, and
// SELECT * lists every column in FROM order. It returns the type of the
// output column each HAVING conjunct reads: a group column's, MIN's and
// MAX's argument's, an int for COUNT and a float for SUM and AVG.
func (b *BoundQuery) bindOutput() ([]value.Kind, error) {
	q := b.Query
	agg := q.HasAggregates()
	if !agg && len(q.Having) > 0 {
		return nil, fmt.Errorf("HAVING requires aggregation")
	}
	b.Output = make([]string, 0, len(q.GroupBy)+len(q.Select))
	// kinds parallels Output while HAVING can read it: in an aggregate query.
	var kinds []value.Kind
	typeOf := func(ref sqlparse.ColRef) value.Kind {
		rel, col, _ := b.RelIndex(ref)
		return b.Rels[rel].Schema[col].Type
	}
	for _, g := range q.GroupBy {
		if _, err := b.read(g); err != nil {
			return nil, err
		}
		if agg {
			b.Output = append(b.Output, g.String())
			kinds = append(kinds, typeOf(g))
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
				return nil, err
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
		switch item.Agg {
		case sqlparse.AggMin, sqlparse.AggMax:
			kinds = append(kinds, typeOf(item.Col))
		case sqlparse.AggCount:
			kinds = append(kinds, value.Int)
		default:
			kinds = append(kinds, value.Float)
		}
	}
	if star && !agg {
		for _, r := range b.Rels {
			for _, c := range r.Table.Schema {
				b.Star = append(b.Star, r.Alias()+"."+c.Name)
			}
		}
		b.Output = b.Star
	}
	var having []value.Kind
	for _, h := range q.Having {
		i := b.outputIndex(h.Item.String())
		if i < 0 && h.Item.Agg == sqlparse.AggNone {
			// A plain column may appear qualified in the output.
			if i = b.outputIndex(h.Item.Col.Column); i < 0 {
				i, _ = b.outputSuffix(h.Item.Col.Column)
			}
		}
		if i < 0 {
			return nil, fmt.Errorf("HAVING column %s not in output", h.Item)
		}
		b.HavingIdx = append(b.HavingIdx, i)
		having = append(having, kinds[i])
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
			return nil, fmt.Errorf("ORDER BY column %s not in output", o.Col)
		}
		b.OrderIdx = append(b.OrderIdx, i)
	}
	return having, nil
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

// typeCheck refuses a constant condition whose literal cannot compare
// with its column, of type typ (see compares).
func typeCheck(typ value.Kind, cond sqlparse.Condition) error {
	vals := cond.InVals
	if !cond.IsIn() {
		vals = []value.Value{*cond.RightVal}
	}
	for _, v := range vals {
		if !compares(typ, v) {
			return typeError(cond.Left, typ, v)
		}
	}
	return nil
}

// compares reports whether a literal v can compare with a column of type
// typ: a string with a string, a number of either kind with a number.
func compares(typ value.Kind, v value.Value) bool {
	return (v.K == value.String) == (typ == value.String)
}

// typeError refuses the literal v that column (or output column) what, of
// type typ, cannot compare with.
func typeError(what any, typ value.Kind, v value.Value) error {
	return fmt.Errorf("%s is %s and cannot compare with %s %s", what, typ, v.K, v)
}

// pushable reports whether a constant condition can travel to the market
// as part of an access query: the attribute must be queryable, and a
// comparison's operator must map onto point/range access. Its literal
// compares with the attribute's column (see typeCheck).
func pushable(a catalog.Attribute, cond sqlparse.Condition) bool {
	if a.Name == "" || a.Binding == catalog.Output {
		return false
	}
	switch cond.Op {
	case sqlparse.OpEq:
		return true
	case sqlparse.OpGe, sqlparse.OpGt, sqlparse.OpLe, sqlparse.OpLt:
		return a.Class == catalog.NumericAttr
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
// is <= 1). A value past the attribute's domain is clamped to just outside
// it, which bounds it as any farther value would, and a strict bound on an
// int64 extreme cannot wrap round to the other one.
func rangeBound(a catalog.Attribute, op sqlparse.CompareOp, v value.Value) int64 {
	var step int64 // past a strict low bound, before a strict high one
	switch op {
	case sqlparse.OpGt:
		step = 1
	case sqlparse.OpLt:
		step = -1
	}
	full := a.FullInterval()
	if v.K == value.Int {
		return max(full.Lo-1, min(v.Int64(), full.Hi)) + step
	}
	f := math.Floor(v.Float64())
	if op == sqlparse.OpGe || op == sqlparse.OpLt {
		f = math.Ceil(v.Float64())
	}
	return int64(max(float64(full.Lo-1), min(f+float64(step), float64(full.Hi))))
}
