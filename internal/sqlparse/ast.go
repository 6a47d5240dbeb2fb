package sqlparse

import (
	"fmt"
	"strings"

	"payless/internal/value"
)

// quoteSQL renders a string as a SQL literal, doubling embedded quotes.
func quoteSQL(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// ColRef names a column, optionally qualified by a table name or alias.
type ColRef struct {
	Table  string
	Column string
}

// String renders the reference as [table.]column.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// AggName enumerates aggregate functions in SELECT items.
type AggName string

// Supported aggregate function names.
const (
	AggNone  AggName = ""
	AggCount AggName = "COUNT"
	AggSum   AggName = "SUM"
	AggAvg   AggName = "AVG"
	AggMin   AggName = "MIN"
	AggMax   AggName = "MAX"
)

// SelectItem is one entry of the SELECT list.
type SelectItem struct {
	// Star marks a bare `*`.
	Star bool
	// Agg is the aggregate function, if any.
	Agg AggName
	// AggStar marks COUNT(*).
	AggStar bool
	// Col is the plain column or the aggregate's argument.
	Col ColRef
	// Alias is the AS name, if any.
	Alias string
}

// String renders the item in SQL syntax.
func (s SelectItem) String() string {
	var out string
	switch {
	case s.Star:
		out = "*"
	case s.Agg != AggNone && s.AggStar:
		out = string(s.Agg) + "(*)"
	case s.Agg != AggNone:
		out = fmt.Sprintf("%s(%s)", s.Agg, s.Col)
	default:
		out = s.Col.String()
	}
	if s.Alias != "" {
		out += " AS " + s.Alias
	}
	return out
}

// TableRef names a table in the FROM clause.
type TableRef struct {
	Name  string
	Alias string
}

// CompareOp enumerates comparison operators.
type CompareOp uint8

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (o CompareOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Condition is one conjunct of the WHERE clause: a column-to-constant
// comparison (RightVal set), a column-to-column comparison (RightCol set),
// or a membership test (InVals set) — written either as `col IN (...)` or
// as a chain of same-column equalities joined by OR, which the paper's §1
// notes must decompose into one market call per value.
type Condition struct {
	Left     ColRef
	Op       CompareOp
	RightCol *ColRef
	RightVal *value.Value
	// InVals holds the values of an IN list (Op is OpEq).
	InVals []value.Value
}

// IsJoin reports whether the condition compares two columns.
func (c Condition) IsJoin() bool { return c.RightCol != nil }

// IsIn reports whether the condition is a membership test.
func (c Condition) IsIn() bool { return len(c.InVals) > 0 }

// String renders the condition in SQL syntax.
func (c Condition) String() string {
	if c.IsIn() {
		parts := make([]string, len(c.InVals))
		for i, v := range c.InVals {
			if v.K == value.String {
				parts[i] = quoteSQL(v.Str())
			} else {
				parts[i] = v.String()
			}
		}
		return fmt.Sprintf("%s IN (%s)", c.Left, strings.Join(parts, ", "))
	}
	rhs := ""
	switch {
	case c.RightCol != nil:
		rhs = c.RightCol.String()
	case c.RightVal != nil:
		if c.RightVal.K == value.String {
			rhs = quoteSQL(c.RightVal.Str())
		} else {
			rhs = c.RightVal.String()
		}
	}
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, rhs)
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Col  ColRef
	Desc bool
}

// HavingCond filters aggregated groups: the named output column (an alias,
// a group-by column, or an aggregate expression rendered like the SELECT
// list) compared against a literal.
type HavingCond struct {
	Item SelectItem
	Op   CompareOp
	Val  value.Value
}

// String renders the condition in SQL syntax.
func (h HavingCond) String() string {
	v := h.Val.String()
	if h.Val.K == value.String {
		v = quoteSQL(h.Val.Str())
	}
	return fmt.Sprintf("%s %s %s", h.Item, h.Op, v)
}

// Query is the parsed form of a PayLess SQL statement. WHERE conditions are
// a pure conjunction: the market access interface cannot express general
// disjunction (§4.2) — only same-column IN/OR groups, which decompose into
// one call per value.
type Query struct {
	// Distinct marks SELECT DISTINCT.
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	Where    []Condition
	GroupBy  []ColRef
	Having   []HavingCond
	OrderBy  []OrderItem
	// Limit is -1 when absent.
	Limit int
}

// HasAggregates reports whether any SELECT item is an aggregate.
func (q *Query) HasAggregates() bool {
	for _, s := range q.Select {
		if s.Agg != AggNone {
			return true
		}
	}
	return false
}

// String renders the query back to SQL (canonical form, for logs and tests).
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" FROM ")
	for i, t := range q.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Name)
		if t.Alias != "" {
			b.WriteString(" " + t.Alias)
		}
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, c := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(c.String())
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if len(q.Having) > 0 {
		b.WriteString(" HAVING ")
		for i, h := range q.Having {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(h.String())
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Col.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}
