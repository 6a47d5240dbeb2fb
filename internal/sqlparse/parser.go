package sqlparse

import (
	"fmt"
	"strings"

	"payless/internal/value"
)

// Parse parses one SQL statement into a Query.
func Parse(src string) (*Query, error) {
	var p parser
	if err := p.parse(src, false); err != nil {
		return nil, err
	}
	return p.q, nil
}

// parse parses src into p.q. With p.mark set, every literal reads as its
// ordinal among the statement's literals (see NewTemplate); with params set
// too, so does a `?` at a literal position (see Prepare).
func (p *parser) parse(src string, params bool) (err error) {
	p.limit = -1
	if p.toks, err = lex(src, params); err == nil {
		p.q, err = p.parseQuery()
	}
	if err == nil && !p.at(tokEOF) {
		err = fmt.Errorf("unexpected %s after end of query", p.cur())
	}
	return err
}

type parser struct {
	toks []token
	i    int
	q    *Query
	// lits counts the literals read so far; with mark set, each one reads
	// as value.NewInt(its ordinal), vals keeps it by ordinal (zero for a
	// `?`) and qmarks the ordinals of the `?`s. limit is the LIMIT count's
	// ordinal.
	lits   int
	mark   bool
	vals   []Literal
	qmarks []int
	limit  int
}

// value reads a literal token as Scan does (see literal), or a `?` as the
// zero Value, and counts it.
func (p *parser) value(t token) (v value.Value, err error) {
	if t.kind == tokParam {
		p.qmarks = append(p.qmarks, p.lits)
	} else {
		v, err = literal(t)
	}
	if p.mark {
		p.vals = append(p.vals, Literal{Val: v})
	}
	p.lits++
	return v, err
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

// atKeyword reports whether the current token is the given keyword
// (case-insensitive).
func (p *parser) atKeyword(kw string) bool {
	return p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return fmt.Errorf("expected %s, got %s", kw, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, fmt.Errorf("expected %s, got %s", what, p.cur())
	}
	return p.next(), nil
}

var reservedWords = map[string]bool{
	"select": true, "from": true, "where": true, "and": true,
	"group": true, "order": true, "by": true, "as": true,
	"asc": true, "desc": true, "limit": true, "or": true, "not": true, "in": true,
	"distinct": true, "having": true,
}

// isReserved reports whether s is a reserved word in any case. It lowers s
// into a stack buffer, so an identifier costs no allocation.
func isReserved(s string) bool {
	var lower [len("distinct")]byte // the longest reserved word
	if len(s) > len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower[i] = c
	}
	return reservedWords[string(lower[:len(s)])]
}

func aggNameOf(s string) (AggName, bool) {
	switch strings.ToUpper(s) {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	default:
		return AggNone, false
	}
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if p.atKeyword("DISTINCT") {
		q.Distinct = true
		p.next()
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if !p.at(tokComma) {
			break
		}
		p.next()
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, ref)
		if !p.at(tokComma) {
			break
		}
		p.next()
	}
	if p.atKeyword("WHERE") {
		p.next()
		for {
			conds, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, conds...)
			if !p.atKeyword("AND") {
				break
			}
			p.next()
		}
	}
	if p.atKeyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, c)
			if !p.at(tokComma) {
				break
			}
			p.next()
		}
	}
	if p.atKeyword("HAVING") {
		p.next()
		for {
			h, err := p.parseHaving()
			if err != nil {
				return nil, err
			}
			q.Having = append(q.Having, h)
			if !p.atKeyword("AND") {
				break
			}
			p.next()
		}
	}
	if p.atKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.atKeyword("DESC") {
				item.Desc = true
				p.next()
			} else if p.atKeyword("ASC") {
				p.next()
			}
			q.OrderBy = append(q.OrderBy, item)
			if !p.at(tokComma) {
				break
			}
			p.next()
		}
	}
	if p.atKeyword("LIMIT") {
		p.next()
		if !p.at(tokNumber) && !p.at(tokParam) {
			return nil, fmt.Errorf("expected LIMIT count, got %s", p.cur())
		}
		p.limit = p.lits
		v, err := p.value(p.next())
		if err == nil && v.K != value.Null { // not a `?`
			q.Limit, err = limitOf(v)
		}
		if err != nil {
			return nil, err
		}
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.at(tokStar) {
		p.next()
		return SelectItem{Star: true}, nil
	}
	t, err := p.expect(tokIdent, "column or aggregate")
	if err != nil {
		return SelectItem{}, err
	}
	var item SelectItem
	if agg, ok := aggNameOf(t.text); ok && p.at(tokLParen) {
		p.next()
		item.Agg = agg
		if p.at(tokStar) {
			if agg != AggCount {
				return SelectItem{}, fmt.Errorf("%s(*) is not supported", agg)
			}
			p.next()
			item.AggStar = true
		} else {
			c, err := p.parseColRef()
			if err != nil {
				return SelectItem{}, err
			}
			item.Col = c
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return SelectItem{}, err
		}
	} else {
		c, err := p.finishColRef(t)
		if err != nil {
			return SelectItem{}, err
		}
		item.Col = c
	}
	if p.atKeyword("AS") {
		p.next()
		a, err := p.expect(tokIdent, "alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a.text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t, err := p.expect(tokIdent, "table name")
	if err != nil {
		return TableRef{}, err
	}
	if isReserved(t.text) {
		return TableRef{}, fmt.Errorf("unexpected keyword %s in FROM", t)
	}
	ref := TableRef{Name: t.text}
	if p.atKeyword("AS") {
		p.next()
		a, err := p.expect(tokIdent, "table alias")
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a.text
	} else if p.at(tokIdent) && !isReserved(p.cur().text) {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) parseColRef() (ColRef, error) {
	t, err := p.expect(tokIdent, "column name")
	if err != nil {
		return ColRef{}, err
	}
	return p.finishColRef(t)
}

func (p *parser) finishColRef(t token) (ColRef, error) {
	if isReserved(t.text) {
		return ColRef{}, fmt.Errorf("unexpected keyword %s", t)
	}
	c := ColRef{Column: t.text}
	if p.at(tokDot) {
		p.next()
		col, err := p.expect(tokIdent, "column name after '.'")
		if err != nil {
			return ColRef{}, err
		}
		c.Table = c.Column
		c.Column = col.text
	}
	return c, nil
}

// operand is a column or a literal on either side of a comparison.
type operand struct {
	col *ColRef
	val *value.Value
}

func (p *parser) parseOperand() (operand, error) {
	switch p.cur().kind {
	case tokNumber, tokString, tokParam:
		v, err := p.value(p.next())
		if err != nil {
			return operand{}, err
		}
		if p.mark {
			v = value.NewInt(int64(p.lits - 1))
		}
		return operand{val: &v}, nil
	case tokIdent:
		c, err := p.parseColRef()
		if err != nil {
			return operand{}, err
		}
		return operand{col: &c}, nil
	default:
		return operand{}, fmt.Errorf("expected column or literal, got %s", p.cur())
	}
}

func opOf(s string) (CompareOp, error) {
	switch s {
	case "=":
		return OpEq, nil
	case "<>", "!=":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, fmt.Errorf("unknown operator %q", s)
	}
}

// flip mirrors an operator so that `lit op col` can be stored as `col op lit`.
func flip(op CompareOp) CompareOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// parseCondition parses one comparison, expanding chained equalities
// (a = b = c, as in the paper's templates) into pairwise conjuncts. It also
// accepts `col IN (v1, v2, ...)` and parenthesised same-column OR groups
// `(col = v1 OR col = v2)`, both of which PayLess decomposes into one
// market call per value (paper §1).
func (p *parser) parseCondition() ([]Condition, error) {
	if p.at(tokLParen) {
		return p.parseOrGroup()
	}
	var operands []operand
	var ops []CompareOp
	lhs, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.atKeyword("IN") {
		if lhs.col == nil {
			return nil, fmt.Errorf("IN requires a column on the left")
		}
		vals, err := p.parseInList()
		if err != nil {
			return nil, err
		}
		return []Condition{{Left: *lhs.col, Op: OpEq, InVals: vals}}, nil
	}
	operands = append(operands, lhs)
	for p.at(tokOp) {
		op, err := opOf(p.next().text)
		if err != nil {
			return nil, err
		}
		rhs, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		operands = append(operands, rhs)
		// Only equality may chain.
		if op != OpEq {
			break
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("expected comparison operator, got %s", p.cur())
	}
	var out []Condition
	for i, op := range ops {
		l, r := operands[i], operands[i+1]
		switch {
		case l.col != nil && r.col != nil:
			out = append(out, Condition{Left: *l.col, Op: op, RightCol: r.col})
		case l.col != nil && r.val != nil:
			out = append(out, Condition{Left: *l.col, Op: op, RightVal: r.val})
		case l.val != nil && r.col != nil:
			out = append(out, Condition{Left: *r.col, Op: flip(op), RightVal: l.val})
		default:
			return nil, fmt.Errorf("comparison between two literals is not supported")
		}
	}
	return out, nil
}

// parseInList parses `IN ( lit, lit, ... )`.
func (p *parser) parseInList() ([]value.Value, error) {
	p.next() // IN
	if _, err := p.expect(tokLParen, "( after IN"); err != nil {
		return nil, err
	}
	var vals []value.Value
	for {
		op, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if op.val == nil {
			return nil, fmt.Errorf("IN list accepts literals only")
		}
		vals = append(vals, *op.val)
		if p.at(tokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, ") after IN list"); err != nil {
		return nil, err
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("empty IN list")
	}
	return vals, nil
}

// parseOrGroup parses a parenthesised group. A bare parenthesised condition
// passes through; a disjunction is accepted only when every branch is an
// equality (or IN) on the same column, merging into one IN condition —
// the restricted disjunction the data market can serve by issuing one call
// per value.
func (p *parser) parseOrGroup() ([]Condition, error) {
	p.next() // (
	first, err := p.parseCondition()
	if err != nil {
		return nil, err
	}
	sawOr := false
	merged := first
	for p.atKeyword("OR") {
		sawOr = true
		p.next()
		next, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		merged = append(merged, next...)
	}
	if _, err := p.expect(tokRParen, ") to close the group"); err != nil {
		return nil, err
	}
	if !sawOr {
		return merged, nil
	}
	out := Condition{Op: OpEq}
	for i, c := range merged {
		if c.IsJoin() || c.Op != OpEq || (c.RightVal == nil && !c.IsIn()) {
			return nil, fmt.Errorf("OR supports only equality comparisons on one column")
		}
		if i == 0 {
			out.Left = c.Left
		} else if !strings.EqualFold(c.Left.Table, out.Left.Table) || !strings.EqualFold(c.Left.Column, out.Left.Column) {
			return nil, fmt.Errorf("OR branches must reference the same column (%s vs %s)", out.Left, c.Left)
		}
		if c.IsIn() {
			out.InVals = append(out.InVals, c.InVals...)
		} else {
			out.InVals = append(out.InVals, *c.RightVal)
		}
	}
	return []Condition{out}, nil
}

// parseHaving parses one HAVING conjunct: an output column, alias, or
// aggregate expression compared against a literal.
func (p *parser) parseHaving() (HavingCond, error) {
	item, err := p.parseSelectItem()
	if err != nil {
		return HavingCond{}, err
	}
	if item.Star || item.Alias != "" {
		return HavingCond{}, fmt.Errorf("HAVING expects a column, alias or aggregate")
	}
	opTok, err := p.expect(tokOp, "comparison operator in HAVING")
	if err != nil {
		return HavingCond{}, err
	}
	op, err := opOf(opTok.text)
	if err != nil {
		return HavingCond{}, err
	}
	rhs, err := p.parseOperand()
	if err != nil {
		return HavingCond{}, err
	}
	if rhs.val == nil {
		return HavingCond{}, fmt.Errorf("HAVING compares against a literal")
	}
	return HavingCond{Item: item, Op: op, Val: *rhs.val}, nil
}
