// Package chunk holds append-only lists in chunks of a fixed Len items. A
// chunk is allocated once, when the list first needs it, and never copied:
// a list of n items costs its items, one partly filled chunk and a
// directory of ⌈n/Len⌉ chunk headers, however it grew.
package chunk

// Bits is log₂ Len.
const Bits = 8

// Len is how many items a chunk holds.
const Len = 1 << Bits

// List is n items, the i-th at position i%Len of chunk i/Len; every chunk
// but the last is full. A List value is a view: a copy shares the chunks.
//
// One writer may Append to a list while readers use copies taken earlier.
// A copy never reads past its own length, and Append writes only past the
// writer's length: into the tail chunk's unfilled slots, or a new chunk
// whose header goes past the end of every copy's directory. So a published
// copy stays valid, and unchanged, while the list grows.
type List[T any] struct {
	dir [][]T
	n   int
}

// Len returns the number of items.
func (l List[T]) Len() int { return l.n }

// At returns item i.
func (l List[T]) At(i int) T { return l.dir[i>>Bits][i&(Len-1)] }

// Chunks returns the number of chunks that hold items.
func (l List[T]) Chunks() int { return (l.n + Len - 1) >> Bits }

// Chunk returns the items of chunk c: Len of them, fewer in the last.
func (l List[T]) Chunk(c int) []T { return l.dir[c][:min(Len, l.n-c<<Bits)] }

// AppendTo appends the items to dst, in order.
func (l List[T]) AppendTo(dst []T) []T {
	for c := range l.Chunks() {
		dst = append(dst, l.Chunk(c)...)
	}
	return dst
}

// Append adds v after the last item, allocating a chunk when the last one
// is full.
func (l *List[T]) Append(v T) {
	c := l.n >> Bits
	if c == len(l.dir) {
		l.dir = append(l.dir, make([]T, Len))
	}
	l.dir[c][l.n&(Len-1)] = v
	l.n++
}

// AppendSlice appends vs, in order, copying a chunk's worth at a time.
func (l *List[T]) AppendSlice(vs []T) {
	for len(vs) > 0 {
		c := l.n >> Bits
		if c == len(l.dir) {
			l.dir = append(l.dir, make([]T, Len))
		}
		k := copy(l.dir[c][l.n&(Len-1):], vs)
		l.n += k
		vs = vs[k:]
	}
}
