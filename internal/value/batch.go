package value

import "math"

// Batch is rows of one schema held column by column: what a market call
// returns, on the wire and from the market to the semantic store. Each
// column is a Vector of N cells in the column's kind, so a batch holds 8
// bytes a number and 16 a string, none of them pointers, and a consumer
// that wants one column reads one slice.
//
// A batch handed on is read-only: shared calls give one batch to several
// readers. Only its maker appends to it or sets its cells.
type Batch struct {
	Cols []Vector
	N    int
}

// Vector is one column of a batch. Its cells are in the slice of its kind,
// one a row: Ints for Int, Floats for Float, Strs for String (interned
// values). A Null-kind vector has no cells, and every row of it is NULL.
// A NULL cell's slot holds the zero payload.
type Vector struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []Value
	// Nulls is the NULL bitmap: bit r%8 of byte r/8 is set when row r is
	// NULL. Nil means no row is; otherwise it has at least ⌈N/8⌉ bytes.
	Nulls []byte
}

// NewBatch returns a batch of n rows in the kinds of schema, every cell the
// zero of its kind and none NULL but in a Null-kind column.
func NewBatch(schema Schema, n int) Batch {
	b := Batch{Cols: make([]Vector, len(schema)), N: n}
	for c, col := range schema {
		b.Cols[c].Kind = col.Type
	}
	b.carve()
	return b
}

// carve gives each vector N zero cells of its kind, the cells of a kind
// carved from one slab, so a batch costs an allocation a kind, not a column.
func (b Batch) carve() {
	var count [String + 1]int
	for _, v := range b.Cols {
		count[v.Kind]++
	}
	n := b.N
	ints, floats, strs := make([]int64, count[Int]*n), make([]float64, count[Float]*n), make([]Value, count[String]*n)
	for c := range b.Cols {
		switch v := &b.Cols[c]; v.Kind {
		case Int:
			v.Ints, ints = ints[:n:n], ints[n:]
		case Float:
			v.Floats, floats = floats[:n:n], floats[n:]
		case String:
			v.Strs, strs = strs[:n:n], strs[n:]
		}
	}
}

// BatchOf returns the rows as a batch of schema's kinds. Each row has a
// cell per column; a cell of another kind than its column's is converted
// as Set converts it.
func BatchOf(schema Schema, rows []Row) Batch {
	b := NewBatch(schema, len(rows))
	for r, row := range rows {
		b.SetRow(r, row)
	}
	return b
}

// SetRow makes row r the cells of row, one a column, as Set makes each.
func (b Batch) SetRow(r int, row Row) {
	for c, x := range row[:len(b.Cols)] {
		switch v := &b.Cols[c]; {
		case x.K != v.Kind || x.K == Null:
			b.Set(r, c, x)
		case x.K == Int:
			v.Ints[r] = int64(x.x)
		case x.K == Float:
			v.Floats[r] = math.Float64frombits(x.x)
		default:
			v.Strs[r] = x
		}
	}
}

// Set makes cell (r, c) v. A non-NULL v of another kind than the column's
// is stored as AsInt, AsFloat or Str reads it, and in a Null-kind column
// as NULL.
func (b Batch) Set(r, c int, v Value) {
	vec := &b.Cols[c]
	if v.K == Null {
		vec.setNull(r, b.N)
		return
	}
	if vec.Nulls != nil {
		vec.Nulls[r/8] &^= 1 << (r % 8)
	}
	switch vec.Kind {
	case Int:
		vec.Ints[r] = v.AsInt()
	case Float:
		vec.Floats[r] = v.AsFloat()
	case String:
		if v.K != String {
			v = Value{K: String}
		}
		vec.Strs[r] = v
	}
}

func (v *Vector) setNull(r, n int) {
	if v.Kind == Null {
		return
	}
	if v.Nulls == nil {
		v.Nulls = make([]byte, (n+7)/8)
	}
	v.Nulls[r/8] |= 1 << (r % 8)
}

// IsNull reports whether row r is NULL.
func (v *Vector) IsNull(r int) bool {
	return v.Kind == Null || v.Nulls != nil && v.Nulls[r/8]&(1<<(r%8)) != 0
}

// HasNulls reports whether any of the vector's n rows is NULL.
func (v *Vector) HasNulls(n int) bool {
	if v.Kind == Null {
		return n > 0
	}
	for _, b := range v.Nulls {
		if b != 0 {
			return true
		}
	}
	return false
}

// At returns row r's cell.
func (v *Vector) At(r int) Value {
	switch {
	case v.IsNull(r):
		return Value{}
	case v.Kind == Int:
		return NewInt(v.Ints[r])
	case v.Kind == Float:
		return NewFloat(v.Floats[r])
	default:
		return v.Strs[r]
	}
}

// At returns cell (r, c).
func (b Batch) At(r, c int) Value { return b.Cols[c].At(r) }

// Row fills dst, which has a cell per column, with row r and returns it.
func (b Batch) Row(r int, dst Row) Row {
	for c := range b.Cols {
		dst[c] = b.Cols[c].At(r)
	}
	return dst
}

// Rows returns the batch as rows carved from one slab.
func (b Batch) Rows() []Row {
	w := len(b.Cols)
	rows, slab := make([]Row, b.N), make([]Value, b.N*w)
	for r := range rows {
		rows[r] = b.Row(r, slab[r*w:(r+1)*w:(r+1)*w])
	}
	return rows
}

// Append appends o's rows, column by column. o has b's width and kinds,
// or no rows; appended to a batch of no rows, o is the result.
func (b *Batch) Append(o Batch) {
	switch {
	case o.N == 0:
		return
	case b.N == 0:
		*b = o
		return
	}
	for c := range b.Cols {
		v, w := &b.Cols[c], &o.Cols[c]
		v.Ints = append(v.Ints, w.Ints...)
		v.Floats = append(v.Floats, w.Floats...)
		v.Strs = append(v.Strs, w.Strs...)
		if v.Nulls == nil && w.Nulls == nil {
			continue
		}
		nulls := make([]byte, (b.N+o.N+7)/8)
		copy(nulls, v.Nulls)
		for r := range o.N {
			if w.Nulls != nil && w.Nulls[r/8]&(1<<(r%8)) != 0 {
				nulls[(b.N+r)/8] |= 1 << ((b.N + r) % 8)
			}
		}
		v.Nulls = nulls
	}
	b.N += o.N
}

// Select returns a new batch of the rows ids, in that order.
func (b Batch) Select(ids []int32) Batch {
	out := Batch{Cols: make([]Vector, len(b.Cols)), N: len(ids)}
	for c := range b.Cols {
		out.Cols[c].Kind = b.Cols[c].Kind
	}
	out.carve()
	for c := range b.Cols {
		v, w := &b.Cols[c], &out.Cols[c]
		for i, r := range ids {
			switch {
			case v.IsNull(int(r)):
				w.setNull(i, len(ids))
			case v.Kind == Int:
				w.Ints[i] = v.Ints[r]
			case v.Kind == Float:
				w.Floats[i] = v.Floats[r]
			default:
				w.Strs[i] = v.Strs[r]
			}
		}
	}
	return out
}
