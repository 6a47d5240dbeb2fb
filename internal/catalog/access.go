package catalog

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"payless/internal/region"
	"payless/internal/value"
)

// Pred is a conjunctive predicate over a single attribute of a call.
// At most one of Eq or (Lo, Hi) is set. Numeric ranges are inclusive on both
// ends, matching the paper's "Date >= ? AND Date <= ?" templates; boxes
// are half-open (see QueryForBox).
type Pred struct {
	Attr string
	// Eq binds the attribute to a single value.
	Eq *value.Value
	// Lo and Hi bound a numeric attribute to the inclusive range [Lo, Hi].
	// Either may be nil for a half-bounded range.
	Lo, Hi *int64
}

// IsPoint reports whether the predicate is an equality binding.
func (p Pred) IsPoint() bool { return p.Eq != nil }

// String renders the predicate for logs and wire encoding.
func (p Pred) String() string { return string(p.appendText(nil)) }

// appendText appends p's String rendering: "Attr=v" for an equality and
// "Attr in [lo,hi]" for a range, an open end as -inf or +inf.
func (p Pred) appendText(buf []byte) []byte {
	buf = append(buf, p.Attr...)
	if p.Eq != nil {
		return p.Eq.AppendText(append(buf, '='))
	}
	buf = append(buf, " in ["...)
	if p.Lo != nil {
		buf = strconv.AppendInt(buf, *p.Lo, 10)
	} else {
		buf = append(buf, "-inf"...)
	}
	buf = append(buf, ',')
	if p.Hi != nil {
		buf = strconv.AppendInt(buf, *p.Hi, 10)
	} else {
		buf = append(buf, "+inf"...)
	}
	return append(buf, ']')
}

// AccessQuery is the specification of one RESTful GET call to the data
// market: a table plus a conjunction of per-attribute predicates. Disjunction
// is not expressible, mirroring the market's access interface (§4.2).
type AccessQuery struct {
	Dataset string
	Table   string
	Preds   []Pred
	// CallID, when non-empty, identifies this logical call across transport
	// retries. The market keeps a bounded per-account replay ledger keyed by
	// it: a retried call with the same ID replays the already-billed result
	// instead of billing again, so a response lost after billing never
	// double-charges the buyer. Transports assign it once per logical call,
	// before their retry loop; it is not a predicate and takes no part in
	// matching or box geometry.
	CallID string
}

// Pred returns the predicate on the named attribute, if any.
func (q AccessQuery) Pred(attr string) (Pred, bool) {
	for _, p := range q.Preds {
		if strings.EqualFold(p.Attr, attr) {
			return p, true
		}
	}
	return Pred{}, false
}

// String renders the call in the paper's tuple notation, e.g.
// Weather('United States', -, [20140601,20140630]), its predicates sorted.
// The scheduler keys every wire call by it, so the predicates are rendered
// into one buffer and sorted as spans of it.
func (q AccessQuery) String() string {
	var text [256]byte
	var spans [8][2]int
	buf, parts := text[:0], spans[:0]
	for _, p := range q.Preds {
		start := len(buf)
		buf = p.appendText(buf)
		parts = append(parts, [2]int{start, len(buf)})
	}
	part := func(i int) []byte { return buf[parts[i][0]:parts[i][1]] }
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && bytes.Compare(part(j), part(j-1)) < 0; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	var b strings.Builder
	b.Grow(len(q.Table) + len(buf) + 2*len(parts) + 2)
	b.WriteString(q.Table)
	b.WriteByte('(')
	for i := range parts {
		if i > 0 {
			b.WriteString(", ")
		}
		b.Write(part(i))
	}
	b.WriteByte(')')
	return b.String()
}

// ValidateBinding checks the call against the table's binding pattern:
// every Bound attribute must carry a predicate, Output attributes must not,
// and every predicate must name a known attribute with a compatible shape
// (categorical attributes accept equality only).
func ValidateBinding(t *Table, q AccessQuery) error {
	for _, p := range q.Preds {
		a, ok := t.Attr(p.Attr)
		if !ok {
			return fmt.Errorf("table %s has no attribute %s", t.Name, p.Attr)
		}
		if a.Binding == Output {
			return fmt.Errorf("attribute %s of %s is output-only and cannot be constrained", p.Attr, t.Name)
		}
		if p.Eq == nil && p.Lo == nil && p.Hi == nil {
			return fmt.Errorf("empty predicate on %s.%s", t.Name, p.Attr)
		}
		if a.Class == CategoricalAttr && p.Eq == nil {
			return fmt.Errorf("categorical attribute %s.%s accepts a single value only", t.Name, p.Attr)
		}
		if p.Eq != nil && (p.Lo != nil || p.Hi != nil) {
			return fmt.Errorf("predicate on %s.%s mixes equality and range", t.Name, p.Attr)
		}
	}
	for _, a := range t.Attrs {
		if a.Binding != Bound {
			continue
		}
		if _, ok := q.Pred(a.Name); !ok {
			return fmt.Errorf("attribute %s of %s must be bound in every call", a.Name, t.Name)
		}
	}
	return nil
}

// QueryForBox converts a box into the AccessQuery that retrieves it: the
// call for a remainder or an access box, and the filter of a local scan.
// Dimensions that span the full domain produce no predicate, except on a
// Bound attribute, which every call must constrain; unit-width dimensions
// become equality predicates; other numeric spans become ranges.
// A multi-value, non-full span on a categorical attribute is rejected
// because the market cannot express it (§4.2, Fig. 8).
func QueryForBox(t *Table, b region.Box) (AccessQuery, error) {
	if b.D() != t.NumDims() {
		return AccessQuery{}, fmt.Errorf("box dimensionality %d does not match table %s (%d)", b.D(), t.Name, t.NumDims())
	}
	q := AccessQuery{Dataset: t.Dataset, Table: t.Name}
	i := -1
	for _, a := range t.Attrs {
		if a.Binding == Output {
			continue
		}
		i++
		iv := b.Dims[i]
		full := a.FullInterval()
		if iv.Equal(full) && a.Binding != Bound {
			continue
		}
		if !full.Contains(iv) || iv.Empty() {
			return AccessQuery{}, fmt.Errorf("box extent %v outside domain of %s.%s", iv, t.Name, a.Name)
		}
		if iv.Width() == 1 {
			v, err := a.ValueAt(iv.Lo)
			if err != nil {
				return AccessQuery{}, err
			}
			q.Preds = append(q.Preds, Pred{Attr: a.Name, Eq: &v})
			continue
		}
		if a.Class == CategoricalAttr {
			return AccessQuery{}, fmt.Errorf("categorical attribute %s.%s cannot span %v", t.Name, a.Name, iv)
		}
		lo, hi := iv.Lo, iv.Hi-1
		q.Preds = append(q.Preds, Pred{Attr: a.Name, Lo: &lo, Hi: &hi})
	}
	return q, nil
}

// Filter is an AccessQuery's conjunction compiled against one table: each
// predicate carries its schema column, resolved once (-1 for an attribute the
// table does not have, which matches nothing), so matching a row costs only
// the comparisons. The zero Filter matches every row.
type Filter []colPred

type colPred struct {
	col int
	Pred
}

// CompileFilter resolves q's predicates against t's schema (attribute names
// match case-insensitively, like everywhere else in the catalog).
func CompileFilter(t *Table, q AccessQuery) Filter {
	f := make(Filter, len(q.Preds))
	for i, p := range q.Preds {
		f[i] = colPred{t.Schema.IndexOf(p.Attr), p}
	}
	return f
}

// Matches reports whether a row of the table the filter was compiled against
// satisfies every predicate.
func (f Filter) Matches(row value.Row) bool {
	for i := range f {
		if p := &f[i]; p.col < 0 || !p.holds(row[p.col]) {
			return false
		}
	}
	return true
}

// MatchesAt is Matches for row r of b, a batch of the table's columns.
func (f Filter) MatchesAt(b value.Batch, r int) bool {
	for i := range f {
		if p := &f[i]; p.col < 0 || !p.holds(b.At(r, p.col)) {
			return false
		}
	}
	return true
}

// holds reports whether v, a cell of the predicate's column, satisfies it.
func (p *colPred) holds(v value.Value) bool {
	if p.Eq != nil {
		return v.Equal(*p.Eq)
	}
	return (p.Lo == nil || v.AsInt() >= *p.Lo) && (p.Hi == nil || v.AsInt() <= *p.Hi)
}

// IntPtr returns a pointer to v; a convenience for building range predicates.
func IntPtr(v int64) *int64 { return &v }

// ValPtr returns a pointer to v; a convenience for building equality predicates.
func ValPtr(v value.Value) *value.Value { return &v }
