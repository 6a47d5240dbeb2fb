package value

import "unicode/utf8"

// The JSON cell encoding is the one every writer of rows shares: the market
// wire, paylessd's responses, and the semantic store's log frames and
// snapshots. A cell is its String rendering as a JSON string, typed by a
// schema kept beside it; NULL of any kind is the JSON null, so it stays
// distinct from the string "NULL". Everything here appends exactly the bytes
// encoding/json writes for the same strings, with no reflection and no
// string per cell.

// AppendJSON appends v as a JSON cell: null for NULL, a String's text as a
// JSON string, and an Int's or Float's AppendText rendering in quotes.
func (v Value) AppendJSON(buf []byte) []byte {
	switch v.K {
	case Null:
		return append(buf, "null"...)
	case String:
		return AppendJSONString(buf, lookup(v.x))
	default:
		return append(v.AppendText(append(buf, '"')), '"')
	}
}

// AppendJSON appends the row as a JSON array of cells (see Value.AppendJSON).
func (r Row) AppendJSON(buf []byte) []byte {
	buf = append(buf, '[')
	for i, v := range r {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = v.AppendJSON(buf)
	}
	return append(buf, ']')
}

// AppendJSONString appends s as a JSON string, byte for byte as
// encoding/json writes it: `"` and `\` escaped, \b \f \n \r \t short and
// other control characters as \u00XX, <, > and & as \u003c, \u003e and
// \u0026, invalid UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func AppendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0 // s[start:i] is yet to be copied
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '"', '\\':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r != utf8.RuneError || size != 1) && r != '\u2028' && r != '\u2029' {
			i += size
			continue
		}
		buf = append(buf, s[start:i]...)
		if r == utf8.RuneError {
			buf = append(buf, `\ufffd`...)
		} else {
			buf = append(buf, '\\', 'u', '2', '0', '2', hex[r&0xf])
		}
		i += size
		start = i
	}
	return append(append(buf, s[start:]...), '"')
}
