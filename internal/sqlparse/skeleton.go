package sqlparse

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
// byte offset it starts at. Instance reads only the value, the one field
// Args sets.
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

// limitOf reads a LIMIT count: a non-negative Int.
func limitOf(v value.Value) (int, error) {
	if v.K != value.Int || v.Int64() < 0 {
		return 0, fmt.Errorf("invalid LIMIT %s %v", v.K, v)
	}
	return int(v.Int64()), nil
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
	// vals are the literals as written, by ordinal (zero at a `?`); qmarks
	// the ordinals of the `?`s.
	vals   []Literal
	qmarks []int
}

// NewTemplate parses src for Instance. It fails where Parse fails, with
// Parse's error.
func NewTemplate(src string) (*Template, error) { return newTemplate(src, false) }

// Prepare parses a prepared statement for Instance: as NewTemplate, but a
// `?` at a literal position — a WHERE or HAVING value, an IN value, the
// LIMIT count — is a placeholder, whose value each execution gives (see
// Args). A `?` in a string or a comment is text.
func Prepare(src string) (*Template, error) { return newTemplate(src, true) }

func newTemplate(src string, params bool) (*Template, error) {
	p := parser{mark: true}
	if err := p.parse(src, params); err != nil {
		return nil, err
	}
	t := &Template{q: p.q, lits: p.lits, limit: p.limit, vals: p.vals, qmarks: p.qmarks}
	for _, c := range p.q.Where {
		if c.RightVal != nil {
			t.slots++
		}
		t.slots += len(c.InVals)
	}
	return t, nil
}

// Query returns the template's AST, each literal slot holding its ordinal:
// the statement's literal-free part, on which names resolve. It must not be
// modified.
func (t *Template) Query() *Query { return t.q }

// NumParams returns the number of `?` placeholders.
func (t *Template) NumParams() int { return len(t.qmarks) }

// Args returns the literals Instance takes for the statement whose `?`s
// are args, in order: an int, int32, int64, finite float32 or float64,
// string or non-NULL value.Value each, which binds as a literal of its
// value does.
func (t *Template) Args(args []any) ([]Literal, error) {
	if len(args) != len(t.qmarks) {
		return nil, fmt.Errorf("statement has %d parameters, got %d arguments", len(t.qmarks), len(args))
	}
	lits := slices.Clone(t.vals)
	for i, arg := range args {
		v := &lits[t.qmarks[i]].Val
		switch a := arg.(type) {
		case int, int32, int64:
			*v = value.NewInt(reflect.ValueOf(a).Int())
		case float32, float64:
			*v = value.NewFloat(reflect.ValueOf(a).Float())
		case string:
			*v = value.NewString(a)
		case value.Value:
			*v = a
		}
		if f := v.Float64(); v.K == value.Null || v.K == value.Float && (math.IsNaN(f) || math.IsInf(f, 0)) {
			return nil, fmt.Errorf("argument %d: %v (%T) is not a finite number, a string or a non-NULL value", i+1, arg, arg)
		}
	}
	return lits, nil
}

// Instance returns the AST Parse returns for a statement of the template's
// skeleton whose literals are lits (from Scan or Args). It shares every
// literal-free part with the template and puts the WHERE values in one
// slab. A LIMIT count Parse refuses fails here with Parse's error.
func (t *Template) Instance(lits []Literal) (*Query, error) {
	if len(lits) != t.lits {
		return nil, fmt.Errorf("template of %d literals given %d", t.lits, len(lits))
	}
	q := *t.q
	if t.limit >= 0 {
		n, err := limitOf(lits[t.limit].Val)
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
