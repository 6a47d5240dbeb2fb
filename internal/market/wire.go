package market

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
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
// [from, to), to buf. Pages after the first carry no bill. A column is
// written in its kind: a cell of another kind, which a generated table never
// holds, goes as AsInt, AsFloat or Str reads it.
func AppendResultPage(buf []byte, res Result, from, to, nextPage int) []byte {
	rows := res.Rows[from:to]
	buf = append(buf, pageMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(res.Schema)))
	for _, c := range res.Schema {
		buf = append(appendText(buf, c.Name), byte(c.Type))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = appendColumns(buf, rows, res.Schema)
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

// appendColumns appends the columns of rows. It first copies the cells
// into one column-major scratch slab, reading each row once in row order:
// the seller's rows are scattered, and reading them a column at a time
// would fetch every row once a column.
func appendColumns(buf []byte, rows []value.Row, schema value.Schema) []byte {
	n := len(rows)
	scratch := cellBufs.Get().(*[]value.Value)
	cells := slices.Grow((*scratch)[:0], n*len(schema))[:n*len(schema)]
	for r, row := range rows {
		for c, v := range row[:len(schema)] {
			cells[c*n+r] = v
		}
	}
	for c, col := range schema {
		buf = appendColumn(buf, cells[c*n:(c+1)*n], col.Type)
	}
	if *scratch = cells; cap(cells)*16 <= maxPooledPage {
		cellBufs.Put(scratch)
	}
	return buf
}

// cellBufs recycles appendColumns' slabs, as pageBufs does pages.
var cellBufs = sync.Pool{New: func() any { return new([]value.Value) }}

// appendColumn appends one column, of kind k: its NULL bitmap, then its
// other cells.
func appendColumn(buf []byte, cells []value.Value, k value.Kind) []byte {
	nulls := len(buf)
	buf = append(buf, make([]byte, (len(cells)+7)/8)...)
	for r, v := range cells {
		if v.K == value.Null || k == value.Null {
			buf[nulls+r/8] |= 1 << (r % 8)
		}
	}
	for _, v := range cells {
		switch {
		case v.K == value.Null || k == value.Null:
		case k == value.Int:
			buf = binary.AppendVarint(buf, v.AsInt())
		case k == value.Float:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
		default:
			buf = appendText(buf, v.Str())
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
// Rows are carved from one slab a page and filled column by column; strings
// are interned, so a stored row never keeps a response body alive. Before it
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
	res.Rows = d.rows(res.Schema)
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

// rows reads the row count and the columns into rows carved from one slab.
func (d *pageReader) rows(schema value.Schema) []value.Row {
	n := d.uvarint()
	width := len(schema)
	switch {
	case d.err != nil || n == 0:
		return nil
	case width == 0:
		d.fail("%d rows of no columns", n)
		return nil
	case n > 8*uint64(d.left()) || int(n+7)/8 > d.left()/width:
		d.fail("%d rows of %d columns in %d bytes", n, width, d.left())
		return nil
	}
	rows, slab := make([]value.Row, n), make([]value.Value, int(n)*width)
	for r := range rows {
		rows[r] = slab[r*width : (r+1)*width : (r+1)*width]
	}
	for c, col := range schema {
		if d.column(slab, len(rows), width, c, col.Type); d.err != nil {
			return nil
		}
	}
	return rows
}

// column reads column c, of kind k, of n rows into slab, whose rows are
// width cells apart. NULL cells are the slab's zero Values.
func (d *pageReader) column(slab []value.Value, n, width, c int, k value.Kind) {
	nulls := d.bytes((n + 7) / 8)
	if d.err != nil {
		return
	}
	last, pad := nulls[len(nulls)-1], uint(n%8)
	if pad > 0 && last>>pad != 0 {
		d.fail("bitmap padding is not zero")
		return
	}
	if k == value.Null {
		full := pad == 0 && last == 0xff || pad > 0 && last == 1<<pad-1
		for _, b := range nulls[:len(nulls)-1] {
			full = full && b == 0xff
		}
		if !full {
			d.fail("a null-kind column holds a value")
		}
		return
	}
	for r, at := 0, c; r < n; r, at = r+1, at+width {
		if nulls[r/8]&(1<<(r%8)) != 0 {
			continue
		}
		switch k {
		case value.Int:
			slab[at] = value.NewInt(d.varint())
		case value.Float:
			slab[at] = value.NewFloat(math.Float64frombits(d.fixed64()))
		default:
			slab[at] = value.NewStringBytes(d.text())
		}
		if d.err != nil {
			return
		}
	}
}
