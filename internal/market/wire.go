package market

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"payless/internal/value"
)

// The body of a data call is the JSON object
//
//	{"schema":[{"name":"a","type":"int"},…],"rows":[["1","x"],…],
//	 "records":2,"transactions":1,"price":1,"nextPage":1}
//
// Cells are JSON strings in value.Value.String form, typed by the schema's
// kind tags; a NULL cell is the JSON null, so the string "NULL" stays a
// string. Large results are paged: nextPage is the index of the next page when
// more rows remain and the client re-issues the call with page=N. Billing
// happens once, on page 0. Every purchased row crosses this format in both
// directions, so both are written by hand: no reflection, no string per cell.

// AppendResultPage appends the wire body of one page of res, its rows
// [from, to), to buf. Pages after the first carry no bill.
func AppendResultPage(buf []byte, res Result, from, to, nextPage int) []byte {
	buf = slices.Grow(buf, 128+(to-from+2)*len(res.Schema)*16) // a guess that spares most regrowth
	buf = append(buf, `{"schema":[`...)
	for i, c := range res.Schema {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = value.AppendJSONString(append(buf, `{"name":`...), c.Name)
		buf = value.AppendJSONString(append(buf, `,"type":`...), c.Type.String())
		buf = append(buf, '}')
	}
	buf = append(buf, `],"rows":[`...)
	for r, row := range res.Rows[from:to] {
		if r > 0 {
			buf = append(buf, ',')
		}
		buf = row.AppendJSON(buf)
	}
	buf = strconv.AppendInt(append(buf, `],"records":`...), int64(res.Records), 10)
	if from == 0 {
		buf = strconv.AppendInt(append(buf, `,"transactions":`...), res.Transactions, 10)
		buf = strconv.AppendFloat(append(buf, `,"price":`...), res.Price, 'g', -1, 64)
	}
	if nextPage > 0 {
		buf = strconv.AppendInt(append(buf, `,"nextPage":`...), int64(nextPage), 10)
	}
	return append(buf, "}\n"...)
}

// DecodeResultPage decodes one page of a data call from its wire body: the
// result, with this page's rows, and the index of the next page (0 after the
// last).
//
// It accepts what encoding/json accepts into the same fields — keys in any
// order and any case, unknown keys skipped, null leaving a field at its zero
// value, invalid UTF-8 replaced — with one deliberate exception: a body that
// repeats a key the decoder reads is malformed, not merged. Rows are carved
// from one slab per page, numeric cells are parsed from the body's bytes and
// string cells are interned from it, so a stored row never keeps a response
// body alive.
func DecodeResultPage(body []byte) (res Result, nextPage int, err error) {
	d := wireDecoder{buf: body}
	defer func() {
		// Malformed input panics with a wireError: no error plumbing per cell.
		if r := recover(); r != nil {
			we, ok := r.(wireError)
			if !ok {
				panic(r)
			}
			res, nextPage, err = Result{}, 0, we.err
		}
	}()
	var kinds []value.Kind
	rowsAt := -1 // offset of a rows array met before the schema, parsed last
	d.object(1, []string{"schema", "rows", "records", "transactions", "price", "nextPage"}, func(field int) {
		switch field {
		case 0:
			res.Schema, kinds = d.schema()
		case 1:
			if rowsAt = d.pos; kinds == nil {
				d.skip(2)
			} else {
				res.Rows, rowsAt = d.rows(kinds), -1
			}
		case 2:
			res.Records = int(d.integer())
		case 3:
			res.Transactions = d.integer()
		case 4:
			if res.Price, err = strconv.ParseFloat(d.number(), 64); err != nil {
				d.fail("%v", err)
			}
		case 5:
			nextPage = int(d.integer())
		}
	})
	if d.space() != 0 || d.pos < len(d.buf) {
		d.fail("data after the top-level value")
	}
	if rowsAt >= 0 {
		d.pos = rowsAt
		res.Rows = d.rows(kinds)
	}
	return res, nextPage, nil
}

type wireError struct{ err error }

// wireDecoder is a cursor over one response body.
type wireDecoder struct {
	buf []byte
	pos int
}

func (d *wireDecoder) fail(format string, args ...any) {
	panic(wireError{fmt.Errorf("wire result: offset %d: "+format, append([]any{d.pos}, args...)...)})
}

// space skips whitespace and returns the byte at the cursor, 0 at the end of
// the body.
func (d *wireDecoder) space() byte {
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// expect consumes the byte c, after whitespace.
func (d *wireDecoder) expect(c byte) {
	if d.space() != c {
		d.fail("want %q", c)
	}
	d.pos++
}

// literal consumes lit if the cursor, after whitespace, is at it. A null
// where a value is expected leaves the field as it is, as in encoding/json.
func (d *wireDecoder) literal(lit string) bool {
	d.space()
	if !bytes.HasPrefix(d.buf[d.pos:], []byte(lit)) {
		return false
	}
	d.pos += len(lit)
	return true
}

// more steps over the separator of an object or array that ends in closer and
// reports false once the closer is consumed. first is true before the first
// element.
func (d *wireDecoder) more(first bool, closer byte) bool {
	c := d.space()
	if c == closer {
		d.pos++
		return false
	}
	if !first {
		if c != ',' {
			d.fail("want ',' or %q", closer)
		}
		d.pos++
		if d.space() == closer {
			d.fail("trailing comma")
		}
	}
	if d.pos == len(d.buf) {
		d.fail("unexpected end")
	}
	return true
}

// object walks a JSON object (or null) nested depth deep. For a key that is
// one of fields — in any case, like encoding/json — it calls read with the
// field's index and the cursor on the member's value, which read consumes;
// such a key must not repeat. Other members are skipped.
func (d *wireDecoder) object(depth int, fields []string, read func(field int)) {
	if d.literal("null") {
		return
	}
	d.expect('{')
	seen := 0
	for first := true; d.more(first, '}'); first = false {
		start := d.pos
		key, plain := d.rawString()
		if !plain {
			d.pos = start
			key = []byte(d.str())
		}
		d.expect(':')
		field := slices.IndexFunc(fields, func(f string) bool { return strings.EqualFold(f, string(key)) })
		if field < 0 {
			d.skip(depth + 1)
			continue
		}
		if seen&(1<<field) != 0 {
			d.fail("duplicate key %q", key)
		}
		seen |= 1 << field
		read(field)
	}
}

// rawString consumes a string token and returns its bytes between the quotes,
// and whether they are the string's value as they stand: no escapes, valid
// UTF-8.
func (d *wireDecoder) rawString() (raw []byte, plain bool) {
	d.expect('"')
	plain = true
	for i := d.pos; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			raw, d.pos = d.buf[d.pos:i], i+1
			return raw, plain && utf8.Valid(raw)
		case c == '\\':
			plain = false
			i++
		case c < 0x20:
			d.fail("control character in string")
		}
	}
	d.fail("unterminated string")
	return nil, false
}

// str consumes a string token and returns its value, a copy.
func (d *wireDecoder) str() string {
	d.space()
	start := d.pos
	raw, plain := d.rawString()
	if plain {
		return string(raw)
	}
	// Escapes, surrogate pairs and invalid UTF-8 are rare in market data:
	// leave their rules to encoding/json.
	var s string
	if err := json.Unmarshal(d.buf[start:d.pos], &s); err != nil {
		d.fail("%v", err)
	}
	return s
}

// number consumes a JSON number token and returns its text (or null: "0").
func (d *wireDecoder) number() string {
	if d.literal("null") {
		return "0"
	}
	start := d.pos
	for d.pos < len(d.buf) && strings.IndexByte("+-.0123456789Ee", d.buf[d.pos]) >= 0 {
		d.pos++
	}
	if !json.Valid(d.buf[start:d.pos]) { // of these bytes, only a number is valid JSON
		d.fail("want a value")
	}
	return string(d.buf[start:d.pos])
}

// integer consumes a number that must be an int64.
func (d *wireDecoder) integer() int64 {
	n, err := strconv.ParseInt(d.number(), 10, 64)
	if err != nil {
		d.fail("%v", err)
	}
	return n
}

// skip consumes and validates one value of any type, depth levels deep.
// encoding/json nests no deeper than 10 000; neither does this.
func (d *wireDecoder) skip(depth int) {
	switch c := d.space(); {
	case c == '{' || c == '[':
		if depth > 10000 {
			d.fail("exceeded max depth")
		}
		d.pos++
		for first := true; d.more(first, c+2); first = false { // '{'+2 == '}', '['+2 == ']'
			if c == '{' {
				d.str()
				d.expect(':')
			}
			d.skip(depth + 1)
		}
	case c == '"':
		d.str()
	case d.literal("null") || d.literal("true") || d.literal("false"):
	default:
		d.number()
	}
}

// schema consumes the schema array (or null) and returns the columns and
// their kinds. kinds is non-nil even for an empty schema.
func (d *wireDecoder) schema() (value.Schema, []value.Kind) {
	schema, kinds := value.Schema{}, []value.Kind{}
	if d.literal("null") {
		return nil, kinds
	}
	d.expect('[')
	for first := true; d.more(first, ']'); first = false {
		var col [2]string
		d.object(3, []string{"name", "type"}, func(field int) {
			if !d.literal("null") {
				col[field] = d.str()
			}
		})
		k, err := value.ParseKind(col[1])
		if err != nil {
			d.fail("column %q: %v", col[0], err)
		}
		schema, kinds = append(schema, value.Column{Name: col[0], Type: k}), append(kinds, k)
	}
	return schema, kinds
}

// rows consumes the rows array (or null). Rows are carved from one slab sized
// by counting row separators — exact for a compactly written body, never more
// than the body could fill; a body written any other way makes the slab grow
// in doubling chunks instead.
func (d *wireDecoder) rows(kinds []value.Kind) []value.Row {
	if d.literal("null") {
		return nil
	}
	d.expect('[')
	width, rest := len(kinds), d.buf[d.pos:]
	hint := min(bytes.Count(rest, []byte("],["))+1, len(rest)/(2*width+1)+1)
	rows := make([]value.Row, 0, hint)
	slab := make([]value.Value, 0, hint*width)
	for first := true; d.more(first, ']'); first = false {
		if cap(slab)-len(slab) < width {
			slab = make([]value.Value, 0, 2*cap(slab)+width)
		}
		row := slab[len(slab) : len(slab) : len(slab)+width]
		if !d.literal("null") { // a null row is an empty one
			d.expect('[')
			for first := true; d.more(first, ']'); first = false {
				if len(row) == width {
					d.fail("row wider than the schema's %d columns", width)
				}
				row = append(row, d.cell(kinds[len(row)]))
			}
		}
		if len(row) != width {
			d.fail("row width %d, want %d", len(row), width)
		}
		slab = slab[:len(slab)+width]
		rows = append(rows, row)
	}
	return rows
}

// cell consumes one cell — a string in value.Value.String form, or null — of
// a column of kind k: what value.Parse parses, but numbers straight from the
// body's bytes.
func (d *wireDecoder) cell(k value.Kind) (v value.Value) {
	if d.buf[d.pos] == 'n' && d.literal("null") {
		return v
	}
	start := d.pos
	raw, plain := d.rawString()
	var err error
	switch {
	case !plain:
		d.pos = start
		v, err = value.Parse(k, d.str())
	case k == value.Int:
		var i int64
		i, err = strconv.ParseInt(string(raw), 10, 64)
		v = value.NewInt(i)
	case k == value.Float:
		var f float64
		f, err = strconv.ParseFloat(string(raw), 64)
		v = value.NewFloat(f)
	case k == value.String:
		v = value.NewStringBytes(raw)
	}
	if err != nil {
		d.fail("%v", err)
	}
	return v
}
