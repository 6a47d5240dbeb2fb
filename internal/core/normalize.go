// Template normalization for the plan cache: a parsed query is reduced to
// its *shape* — everything that can influence the optimizer's choice of
// join order and access paths except the literal constant values. Two
// instantiations of one application template ("parameterized queries issued
// by specifying the parameter values", paper §2.2) normalize to the same
// key, so the second one can reuse the first one's cached plan instead of
// re-running the dynamic program.
package core

import (
	"fmt"
	"strings"

	"payless/internal/sqlparse"
	"payless/internal/value"
)

// NormalizedQuery is the parameterized template of one parsed statement:
// the cache key (canonical shape text with typed placeholders) and the
// extracted literals in placeholder order. Rebind(Params) reconstructs a
// concrete query. Normalization runs on every cache lookup, so it builds
// only the key eagerly; the template AST is cloned lazily by Rebind.
type NormalizedQuery struct {
	// Key is the canonical shape rendering. It pins the select list, table
	// set, every condition's columns and operator, IN-list arity, GROUP
	// BY/HAVING/ORDER BY structure and the literal *types* — but no literal
	// values. Distinct shapes render to distinct keys.
	Key string
	// Params are the stripped literals in normalization order: WHERE
	// conditions left to right (IN lists expanded), then HAVING, then LIMIT.
	Params []value.Value
	// src is the query the template was derived from; Rebind clones it and
	// overwrites every literal position. Callers must not mutate the source
	// between Normalize and Rebind.
	src *sqlparse.Query
	// kinds records each placeholder's value kind for Rebind validation;
	// limit remembers whether the statement had a LIMIT clause.
	kinds []value.Kind
	limit bool
}

// NumParams returns the number of extracted literals.
func (n *NormalizedQuery) NumParams() int { return len(n.Params) }

// Normalize reduces a parsed query to its plan-cache template. The walk
// order is deterministic (it mirrors the written query), so equal queries
// always produce byte-equal keys and aligned parameter lists.
func Normalize(q *sqlparse.Query) *NormalizedQuery {
	n := &NormalizedQuery{
		src:    q,
		Params: make([]value.Value, 0, 8),
		kinds:  make([]value.Kind, 0, 8),
	}
	var b strings.Builder
	b.Grow(256)

	take := func(v value.Value) {
		n.Params = append(n.Params, v)
		n.kinds = append(n.kinds, v.K)
		b.WriteString("?:")
		b.WriteString(kindTag(v.K))
	}

	b.WriteString("select ")
	if q.Distinct {
		b.WriteString("distinct ")
	}
	for i, s := range q.Select {
		if i > 0 {
			b.WriteByte(',')
		}
		writeSelectItem(&b, s)
	}
	b.WriteString(" from ")
	for i, t := range q.From {
		if i > 0 {
			b.WriteByte(',')
		}
		writeLower(&b, t.Name)
		if t.Alias != "" {
			b.WriteByte(' ')
			writeLower(&b, t.Alias)
		}
	}
	if len(q.Where) > 0 {
		b.WriteString(" where ")
		for i := range q.Where {
			if i > 0 {
				b.WriteString(" and ")
			}
			cond := &q.Where[i]
			writeColRef(&b, cond.Left)
			b.WriteString(cond.Op.String())
			switch {
			case cond.RightCol != nil:
				writeColRef(&b, *cond.RightCol)
			case cond.IsIn():
				b.WriteString("in(")
				for j, v := range cond.InVals {
					if j > 0 {
						b.WriteByte(',')
					}
					take(v)
				}
				b.WriteByte(')')
			case cond.RightVal != nil:
				take(*cond.RightVal)
			}
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteByte(',')
			}
			writeColRef(&b, g)
		}
	}
	if len(q.Having) > 0 {
		b.WriteString(" having ")
		for i := range q.Having {
			if i > 0 {
				b.WriteString(" and ")
			}
			h := &q.Having[i]
			writeSelectItem(&b, h.Item)
			b.WriteString(h.Op.String())
			take(h.Val)
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" order by ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteByte(',')
			}
			writeColRef(&b, o.Col)
			if o.Desc {
				b.WriteString(" desc")
			}
		}
	}
	if q.Limit >= 0 {
		n.limit = true
		b.WriteString(" limit ")
		take(value.NewInt(int64(q.Limit)))
	}
	n.Key = b.String()
	return n
}

// Rebind reinstates literals into the template, reconstructing a concrete
// query. Params must match the template's placeholders in count and kind.
// Every placeholder position of the cloned source is overwritten, so the
// result is independent of which instance the template was derived from.
func (n *NormalizedQuery) Rebind(params []value.Value) (*sqlparse.Query, error) {
	if len(params) != len(n.kinds) {
		return nil, fmt.Errorf("core: template has %d placeholders, got %d values", len(n.kinds), len(params))
	}
	for i, p := range params {
		if p.K != n.kinds[i] {
			return nil, fmt.Errorf("core: placeholder %d wants %s, got %s", i+1, kindTag(n.kinds[i]), kindTag(p.K))
		}
	}
	q := cloneQuery(n.src)
	next := 0
	pop := func() value.Value { v := params[next]; next++; return v }
	for i := range q.Where {
		cond := &q.Where[i]
		switch {
		case cond.RightCol != nil:
		case cond.IsIn():
			for j := range cond.InVals {
				cond.InVals[j] = pop()
			}
		case cond.RightVal != nil:
			*cond.RightVal = pop()
		}
	}
	for i := range q.Having {
		q.Having[i].Val = pop()
	}
	if n.limit {
		q.Limit = int(pop().AsInt())
	}
	return q, nil
}

// kindTag names a value kind in cache keys and error messages.
func kindTag(k value.Kind) string {
	switch k {
	case value.Int:
		return "int"
	case value.Float:
		return "float"
	case value.String:
		return "str"
	default:
		return "null"
	}
}

// writeLower appends s lowercased without allocating (identifiers are
// ASCII; anything else passes through unchanged). Identifiers are short, so
// the conversion runs through a stack buffer and lands in one Write.
func writeLower(b *strings.Builder, s string) {
	var buf [64]byte
	for len(s) > 0 {
		chunk := s
		if len(chunk) > len(buf) {
			chunk = chunk[:len(buf)]
		}
		for i := 0; i < len(chunk); i++ {
			c := chunk[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		b.Write(buf[:len(chunk)])
		s = s[len(chunk):]
	}
}

func writeColRef(b *strings.Builder, c sqlparse.ColRef) {
	if c.Table != "" {
		writeLower(b, c.Table)
		b.WriteByte('.')
	}
	writeLower(b, c.Column)
}

func writeSelectItem(b *strings.Builder, s sqlparse.SelectItem) {
	switch {
	case s.Star:
		b.WriteByte('*')
	case s.Agg != sqlparse.AggNone && s.AggStar:
		writeLower(b, string(s.Agg))
		b.WriteString("(*)")
	case s.Agg != sqlparse.AggNone:
		writeLower(b, string(s.Agg))
		b.WriteByte('(')
		writeColRef(b, s.Col)
		b.WriteByte(')')
	default:
		writeColRef(b, s.Col)
	}
	if s.Alias != "" {
		b.WriteString(" as ")
		writeLower(b, s.Alias)
	}
}

// cloneQuery deep-copies a parsed query (conditions hold pointers).
func cloneQuery(q *sqlparse.Query) *sqlparse.Query {
	out := &sqlparse.Query{
		Distinct: q.Distinct,
		Select:   append([]sqlparse.SelectItem(nil), q.Select...),
		From:     append([]sqlparse.TableRef(nil), q.From...),
		GroupBy:  append([]sqlparse.ColRef(nil), q.GroupBy...),
		Having:   append([]sqlparse.HavingCond(nil), q.Having...),
		OrderBy:  append([]sqlparse.OrderItem(nil), q.OrderBy...),
		Limit:    q.Limit,
	}
	out.Where = make([]sqlparse.Condition, len(q.Where))
	for i, c := range q.Where {
		nc := c
		if c.RightCol != nil {
			rc := *c.RightCol
			nc.RightCol = &rc
		}
		if c.RightVal != nil {
			rv := *c.RightVal
			nc.RightVal = &rv
		}
		if c.InVals != nil {
			nc.InVals = append([]value.Value(nil), c.InVals...)
		}
		out.Where[i] = nc
	}
	return out
}
