// Package sqlparse provides the SQL front end of PayLess (paper §3, step 1):
// a lexer and recursive-descent parser for the query class the paper
// evaluates — SELECT with columns, * and aggregates; multi-table FROM;
// WHERE as a conjunction of comparisons between columns and constants
// (including the paper's chained equalities such as
// "Station.Country = Weather.Country = ?"); GROUP BY; ORDER BY; LIMIT.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokOp    // = <> != < <= > >=
	tokParam // ?, a prepared statement's placeholder (see Prepare)
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer reads the tokens of src one at a time: Parse collects them into a
// slice, Scan consumes them as they come, so both read one token stream. A
// `?` is a token only with params set.
type lexer struct {
	src    string
	pos    int
	params bool
}

// lex tokenises the input. Errors carry the byte offset of the offence.
func lex(src string, params bool) ([]token, error) {
	l := lexer{src: src, params: params}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// next returns the next token, tokEOF at the end of the input.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == ',':
			return l.emit(tokComma, 1), nil
		case c == '.':
			return l.emit(tokDot, 1), nil
		case c == '(':
			return l.emit(tokLParen, 1), nil
		case c == ')':
			return l.emit(tokRParen, 1), nil
		case c == '*':
			return l.emit(tokStar, 1), nil
		case c == '=':
			return l.emit(tokOp, 1), nil
		case c == '<':
			if l.peek(1) == '=' || l.peek(1) == '>' {
				return l.emit(tokOp, 2), nil
			}
			return l.emit(tokOp, 1), nil
		case c == '>':
			if l.peek(1) == '=' {
				return l.emit(tokOp, 2), nil
			}
			return l.emit(tokOp, 1), nil
		case c == '!':
			if l.peek(1) == '=' {
				return l.emit(tokOp, 2), nil
			}
			return token{}, fmt.Errorf("pos %d: unexpected '!'", l.pos)
		case c == '?' && l.params:
			return l.emit(tokParam, 1), nil
		case c == '\'':
			return l.lexString()
		case c == '-' && l.peek(1) == '-':
			// SQL line comment: skip to end of line.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '-' || (c >= '0' && c <= '9'):
			return l.lexNumber()
		case unicode.IsLetter(rune(c)) || c == '_':
			return l.lexIdent(), nil
		default:
			return token{}, fmt.Errorf("pos %d: unexpected character %q", l.pos, c)
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil
}

func (l *lexer) peek(ahead int) byte {
	if l.pos+ahead >= len(l.src) {
		return 0
	}
	return l.src[l.pos+ahead]
}

// emit returns the next n bytes as a token of kind k.
func (l *lexer) emit(k tokenKind, n int) token {
	t := token{kind: k, text: l.src[l.pos : l.pos+n], pos: l.pos}
	l.pos += n
	return t
}

// lexString reads a quoted literal. Its text is the literal's content, a
// substring of the source unless it has an escaped quote.
func (l *lexer) lexString() (token, error) {
	start := l.pos
	for l.pos++; l.pos < len(l.src); l.pos++ {
		if l.src[l.pos] != '\'' {
			continue
		}
		if l.peek(1) == '\'' { // '' escapes a quote
			l.pos++
			continue
		}
		l.pos++
		text := strings.ReplaceAll(l.src[start+1:l.pos-1], "''", "'")
		return token{kind: tokString, text: text, pos: start}, nil
	}
	return token{}, fmt.Errorf("pos %d: unterminated string literal", start)
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
		if l.pos >= len(l.src) || l.src[l.pos] < '0' || l.src[l.pos] > '9' {
			return token{}, fmt.Errorf("pos %d: '-' not followed by a digit", start)
		}
	}
	dots := 0
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && dots == 0 && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			dots++
			l.pos++
			continue
		}
		break
	}
	return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
}

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			l.pos++
			continue
		}
		break
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
}
