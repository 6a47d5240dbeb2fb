package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"payless/internal/value"
)

// A statement's skeleton is its token sequence with every literal replaced
// by a placeholder of the literal's kind. Statements with one skeleton parse
// to one AST but for their literal values (the parse reads a literal's kind,
// never its value), so the skeleton keys a cache of parsed statements: Scan
// computes it without building tokens or an AST, and a Template patches a
// new statement's literals into the AST parsed once for the skeleton.

// Literal is one literal of a statement, in source order: its value, as
// Parse reads it, its text (a string's without quotes or escapes) and the
// byte offset it starts at.
type Literal struct {
	Val  value.Value
	Text string
	Pos  int
}

// literal reads a literal token: a string joins the dictionary, a number
// with a '.' is a Float and any other number an Int. Parse and Scan both
// read literals here, so no literal is read two ways.
func literal(t token) (value.Value, error) {
	switch {
	case t.kind == tokString:
		return value.NewString(t.text), nil
	case strings.Contains(t.text, "."):
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("invalid number %q", t.text)
		}
		return value.NewFloat(f), nil
	default:
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("invalid number %q", t.text)
		}
		return value.NewInt(i), nil
	}
}

// limitOf reads a LIMIT count.
func limitOf(text string) (int, error) {
	n, err := strconv.Atoi(text)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid LIMIT %q", text)
	}
	return n, nil
}

// Scan appends the skeleton of src to skel and its literals to lits. Each
// token is written as its kind byte — below 0x20, so never part of an
// identifier — followed by an identifier's or operator's text verbatim, or
// by a literal's value kind. Scan reads the token stream Parse reads and its
// literals as Parse reads them; an error means Parse rejects src too.
func Scan(src string, skel []byte, lits []Literal) ([]byte, []Literal, error) {
	l := lexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return skel, lits, err
		}
		skel = append(skel, byte(t.kind))
		switch t.kind {
		case tokEOF:
			return skel, lits, nil
		case tokNumber, tokString:
			v, err := literal(t)
			if err != nil {
				return skel, lits, err
			}
			skel = append(skel, byte(v.K))
			lits = append(lits, Literal{Val: v, Text: t.text, Pos: t.pos})
		case tokIdent, tokOp:
			skel = append(skel, t.text...)
		}
	}
}

// Template is a statement parsed once for all statements of its skeleton:
// its AST holds in each literal slot value.NewInt(the literal's ordinal). It
// is immutable, so concurrent instances share it.
type Template struct {
	q *Query
	// lits is the number of literals; slots the number of WHERE values (a
	// RightVal, or one IN value each); limit the LIMIT count's ordinal, -1
	// when there is none.
	lits, slots, limit int
}

// NewTemplate parses src for Instance. It fails where Parse fails.
func NewTemplate(src string) (*Template, error) {
	q, lits, limit, err := parse(src, true)
	if err != nil {
		return nil, err
	}
	t := &Template{q: q, lits: lits, limit: limit}
	for _, c := range q.Where {
		if c.RightVal != nil {
			t.slots++
		}
		t.slots += len(c.InVals)
	}
	return t, nil
}

// Instance returns the AST Parse returns for a statement of the template's
// skeleton whose literals are lits (from Scan). It shares every literal-free
// part with the template and puts the WHERE values in one slab. A LIMIT
// count Parse refuses fails here with Parse's error.
func (t *Template) Instance(lits []Literal) (*Query, error) {
	if len(lits) != t.lits {
		return nil, fmt.Errorf("template of %d literals given %d", t.lits, len(lits))
	}
	q := *t.q
	if t.limit >= 0 {
		n, err := limitOf(lits[t.limit].Text)
		if err != nil {
			return nil, err
		}
		q.Limit = n
	}
	if len(q.Where) > 0 {
		slab := make([]value.Value, t.slots)
		q.Where = append([]Condition(nil), q.Where...)
		for i := range q.Where {
			c := &q.Where[i]
			switch {
			case c.RightVal != nil:
				slab[0] = lits[c.RightVal.Int64()].Val
				c.RightVal, slab = &slab[0], slab[1:]
			case c.IsIn():
				n := len(c.InVals)
				in := slab[:n:n]
				for j, v := range c.InVals {
					in[j] = lits[v.Int64()].Val
				}
				c.InVals, slab = in, slab[n:]
			}
		}
	}
	if len(q.Having) > 0 {
		q.Having = append([]HavingCond(nil), q.Having...)
		for i := range q.Having {
			q.Having[i].Val = lits[q.Having[i].Val.Int64()].Val
		}
	}
	return &q, nil
}
