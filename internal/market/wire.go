package market

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode/utf8"

	"payless/internal/value"
)

// The body of a data call is one column batch, sent as PageMediaType:
//
//	magic     "PLP\x01": PayLess page, version 1
//	schema    a uvarint column count; per column a text name and a kind byte
//	rows      a uvarint row count
//	columns   per column, a NULL bitmap of ⌈rows/8⌉ bytes (bit r%8 of byte r/8
//	          set when row r is NULL, every bit of a null-kind column), then its
//	          non-NULL cells in row order: an Int as a zigzag varint, a Float as
//	          its 8 IEEE bits, little-endian, a String as text
//	records   a uvarint
//	bill      transactions as a zigzag varint and the price's 8 IEEE bits,
//	          both 0 after page 0
//	nextPage  a uvarint, 0 on the last page
//
// Text is a uvarint length and that many bytes of UTF-8. Large results are
// paged: nextPage is the index of the next page when more rows remain, and
// the client re-issues the call with page=N. Billing happens once, on page 0.
//
// Every purchased cell crosses this format, so no float is formatted and no
// cell is parsed. The format has one spelling per page: varints are minimal,
// bitmap padding is zero, and the writer replaces each byte of a string that
// is not UTF-8 with U+FFFD, as the JSON cell encoding and the store do. A
// body that decodes therefore re-encodes to the same bytes.

// PageMediaType is the Content-Type of a data call's body.
const PageMediaType = "application/vnd.payless.page"

var pageMagic = []byte("PLP\x01")

// ErrNotAPage is DecodeResultPage's error for a body that does not begin
// with the page magic: a JSON body from an older market, say, or a proxy's
// HTML error page.
var ErrNotAPage = errors.New("market page: body is not " + PageMediaType)

// AppendResultPage appends the wire body of one page of res, its rows
// [from, to), to buf. Pages after the first carry no bill.
func AppendResultPage(buf []byte, res Result, from, to, nextPage int) []byte {
	buf = append(buf, pageMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(res.Schema)))
	for _, c := range res.Schema {
		buf = append(appendText(buf, c.Name), byte(c.Type))
	}
	buf = binary.AppendUvarint(buf, uint64(to-from))
	if from < to { // no rows, no column bytes, and maybe no columns in the batch
		for c := range res.Schema {
			buf = appendColumn(buf, &res.Batch.Cols[c], from, to)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(res.Records))
	var transactions int64
	var price float64
	if from == 0 {
		transactions, price = res.Transactions, res.Price
	}
	buf = binary.AppendVarint(buf, transactions)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(price))
	return binary.AppendUvarint(buf, uint64(nextPage))
}

// appendColumn appends rows [from, to) of one column: its NULL bitmap, then
// its other cells.
func appendColumn(buf []byte, v *value.Vector, from, to int) []byte {
	nulls := len(buf)
	buf = append(buf, make([]byte, (to-from+7)/8)...)
	if v.Kind == value.Null || v.Nulls != nil {
		for r := from; r < to; r++ {
			if v.IsNull(r) {
				buf[nulls+(r-from)/8] |= 1 << ((r - from) % 8)
			}
		}
	}
	for r := from; r < to && v.Kind != value.Null; r++ {
		switch {
		case v.Nulls != nil && v.IsNull(r):
		case v.Kind == value.Int:
			buf = binary.AppendVarint(buf, v.Ints[r])
		case v.Kind == value.Float:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[r]))
		default:
			buf = appendText(buf, v.Strs[r].Str())
		}
	}
	return buf
}

// appendText appends s as text, one U+FFFD for each byte that is not UTF-8.
func appendText(buf []byte, s string) []byte {
	if !utf8.ValidString(s) {
		s = strings.Map(func(r rune) rune { return r }, s)
	}
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// DecodeResultPage decodes one page of a data call from its wire body: the
// result, with this page's rows, and the index of the next page (0 after the
// last). It accepts exactly the bodies AppendResultPage writes.
//
// The rows come as one column batch, filled column by column; strings are
// interned, so a stored row never keeps a response body alive. Before it
// allocates for a count, the decoder checks that the bytes left could hold
// what the count describes, so a body cannot claim more memory than it
// could fill: each column at least 2 bytes, each row a bitmap bit in every
// column.
func DecodeResultPage(body []byte) (res Result, nextPage int, err error) {
	if !bytes.HasPrefix(body, pageMagic) {
		return Result{}, 0, ErrNotAPage
	}
	d := pageReader{buf: body, pos: len(pageMagic)}
	res.Schema = d.schema()
	res.Batch = d.batch(res.Schema)
	res.Records = d.count()
	res.Transactions = d.varint()
	res.Price = math.Float64frombits(d.fixed64())
	nextPage = d.count()
	if d.err == nil && d.pos != len(d.buf) {
		d.fail("%d bytes after the page", len(d.buf)-d.pos)
	}
	if d.err != nil {
		return Result{}, 0, d.err
	}
	return res, nextPage, nil
}

// pageReader is a cursor over one page. The first failure sticks, and reads
// after it return zeros or stay in bounds; callers check err before they
// trust a count.
type pageReader struct {
	buf []byte
	pos int
	err error
}

func (d *pageReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("market page: offset %d: "+format, append([]any{d.pos}, args...)...)
	}
}

func (d *pageReader) left() int { return len(d.buf) - d.pos }

// uvarint reads a minimal uvarint.
func (d *pageReader) uvarint() uint64 {
	x, n := binary.Uvarint(d.buf[d.pos:])
	switch {
	case n == 0:
		d.fail("unexpected end")
	case n < 0 || n > 1 && d.buf[d.pos+n-1] == 0:
		d.fail("malformed varint")
	default:
		d.pos += n
		return x
	}
	return 0
}

// varint reads a minimal zigzag varint.
func (d *pageReader) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a uvarint that must fit an int.
func (d *pageReader) count() int {
	n := d.uvarint()
	if n > math.MaxInt {
		d.fail("count %d out of range", n)
		return 0
	}
	return int(n)
}

func (d *pageReader) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.left() < 8 {
		d.fail("unexpected end")
		return 0
	}
	x := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return x
}

// bytes reads n bytes, a slice of the body.
func (d *pageReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > d.left() {
		d.fail("unexpected end")
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

// text reads text, a slice of the body.
func (d *pageReader) text() []byte {
	n := d.uvarint()
	if n > uint64(d.left()) {
		d.fail("unexpected end")
		return nil
	}
	b := d.bytes(int(n))
	if !utf8.Valid(b) {
		d.fail("text is not UTF-8")
	}
	return b
}

// schema reads the column count and the columns. Names are interned: a
// page's names are those of the pages before it.
func (d *pageReader) schema() value.Schema {
	n := d.uvarint()
	if n > uint64(d.left()/2) {
		d.fail("%d columns in %d bytes", n, d.left())
	}
	if d.err != nil || n == 0 {
		return nil
	}
	schema := make(value.Schema, n)
	for i := range schema {
		schema[i].Name = value.NewStringBytes(d.text()).Str()
		k := d.bytes(1)
		if d.err != nil {
			return nil
		}
		if k[0] > byte(value.String) {
			d.fail("unknown kind %d", k[0])
			return nil
		}
		schema[i].Type = value.Kind(k[0])
	}
	return schema
}

// batch reads the row count and the columns.
func (d *pageReader) batch(schema value.Schema) value.Batch {
	n := d.uvarint()
	width := len(schema)
	switch {
	case d.err != nil || n == 0:
		return value.Batch{}
	case width == 0:
		d.fail("%d rows of no columns", n)
		return value.Batch{}
	case n > 8*uint64(d.left()) || int(n+7)/8 > d.left()/width:
		d.fail("%d rows of %d columns in %d bytes", n, width, d.left())
		return value.Batch{}
	}
	b := value.NewBatch(schema, int(n))
	for c := range b.Cols {
		if d.column(&b.Cols[c], b.N); d.err != nil {
			return value.Batch{}
		}
	}
	return b
}

// column reads a column of n rows into v, which NewBatch made.
func (d *pageReader) column(v *value.Vector, n int) {
	nulls := d.bytes((n + 7) / 8)
	if d.err != nil {
		return
	}
	last, pad := nulls[len(nulls)-1], uint(n%8)
	if pad > 0 && last>>pad != 0 {
		d.fail("bitmap padding is not zero")
		return
	}
	if v.Kind == value.Null {
		full := pad == 0 && last == 0xff || pad > 0 && last == 1<<pad-1
		for _, b := range nulls[:len(nulls)-1] {
			full = full && b == 0xff
		}
		if !full {
			d.fail("a null-kind column holds a value")
		}
		return
	}
	if slices.ContainsFunc(nulls, func(b byte) bool { return b != 0 }) {
		v.Nulls = slices.Clone(nulls)
	}
	// A failed read sticks and later ones read zeros, so a numeric column
	// reads on and the caller checks d.err; text stops at the failure.
	switch v.Kind {
	case value.Int:
		for r := range v.Ints {
			if !v.IsNull(r) {
				v.Ints[r] = d.varint()
			}
		}
	case value.Float:
		for r := range v.Floats {
			if !v.IsNull(r) {
				v.Floats[r] = math.Float64frombits(d.fixed64())
			}
		}
	default:
		for r := 0; r < n && d.err == nil; r++ {
			if !v.IsNull(r) {
				v.Strs[r] = value.NewStringBytes(d.text())
			}
		}
	}
}
