// Template normalization for the plan cache: a parsed query is reduced to
// its *shape* — everything that can influence the optimizer's choice of
// join order and access paths except the literal constant values. Two
// instantiations of one application template ("parameterized queries issued
// by specifying the parameter values", paper §2.2) normalize to the same
// key, so the second one can reuse the first one's cached plan instead of
// re-running the dynamic program.
package core

import (
	"strings"

	"payless/internal/sqlparse"
	"payless/internal/value"
)

// Normalize reduces a parsed query to its plan-cache key: the canonical
// shape rendering with typed placeholders. It pins the select list, table
// set, every condition's columns and operator, IN-list arity, GROUP
// BY/HAVING/ORDER BY structure and the literal *types* — but no literal
// values, so distinct shapes render to distinct keys. The walk order is
// deterministic (it mirrors the written query), so equal queries always
// produce byte-equal keys. q is not modified.
func Normalize(q *sqlparse.Query) string {
	var b strings.Builder
	b.Grow(256)

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
					writePlaceholder(&b, v.K)
				}
				b.WriteByte(')')
			case cond.RightVal != nil:
				writePlaceholder(&b, cond.RightVal.K)
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
			writePlaceholder(&b, h.Val.K)
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
		b.WriteString(" limit ")
		writePlaceholder(&b, value.Int)
	}
	return b.String()
}

// writePlaceholder appends the typed placeholder that stands for one
// literal of kind k.
func writePlaceholder(b *strings.Builder, k value.Kind) {
	switch k {
	case value.Int:
		b.WriteString("?:int")
	case value.Float:
		b.WriteString("?:float")
	case value.String:
		b.WriteString("?:str")
	default:
		b.WriteString("?:null")
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
