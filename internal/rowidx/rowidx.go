// Package rowidx is the row index the semantic store and the market share:
// per queryable dimension, a column of the rows' coordinates and
// log-structured runs of their int32 ids sorted by it (Dim), and the kernel
// that selects the ids of the rows inside a box (Select). Columns are
// append-only chunk lists and a pushed run is never written, so a Clone
// taken earlier stays valid while the writer adds rows.
package rowidx

import (
	"cmp"
	"math"
	mathbits "math/bits"
	"slices"
	"sort"
	"sync"

	"payless/internal/chunk"
	"payless/internal/region"
)

// Run is one sorted run of a dimension: the ids of a contiguous range of
// rows in (coordinate, id) order, the coordinates read through the
// dimension's column.
type Run []int32

// Dim is the row index on one dimension: Col holds every row's coordinate
// there, by row id, and Runs sort the ids, oldest first, each more than
// twice as long as the next (the logarithmic method), so n rows make at
// most ⌊log₂ n⌋+1 runs and each id is copied O(log n) times.
type Dim struct {
	Col  chunk.List[int64]
	Runs []Run
}

// Span returns run's ids whose coordinate lies in iv.
func (d *Dim) Span(run Run, iv region.Interval) Run {
	col := d.Col
	l := sort.Search(len(run), func(i int) bool { return col.At(int(run[i])) >= iv.Lo })
	h := l + sort.Search(len(run)-l, func(i int) bool { return col.At(int(run[l+i])) >= iv.Hi })
	return run[l:h]
}

// Clone shares the column and the runs and copies the run headers, with
// room for the one more run a push may append.
func (d *Dim) Clone() Dim {
	return Dim{Col: d.Col, Runs: append(make([]Run, 0, len(d.Runs)+1), d.Runs...)}
}

// Add indexes rows first … first+n−1, whose coordinates Col already holds,
// as one run: sorted in a pooled buffer, then pushed.
func (d *Dim) Add(first, n int) {
	if n == 0 {
		return
	}
	buf := runBufs.Get().(*[]int32)
	*buf = slices.Grow((*buf)[:0], 2*n)[:2*n]
	run := Run((*buf)[:n])
	for i := range run {
		run[i] = int32(first + i)
	}
	sortRun(d.Col, run, (*buf)[n:])
	d.Push(run)
	if cap(*buf) <= maxPooledRunBuf {
		runBufs.Put(buf)
	}
}

// runBufs recycles Add's run buffers, up to maxPooledRunBuf ids: a batch of
// a full market page reuses the last one's.
var runBufs = sync.Pool{New: func() any { return new([]int32) }}

const maxPooledRunBuf = 16 << 10

// Push appends a sorted run and merges the tail while the run before it is
// at most twice as long, newest first (mergeRuns). run is the caller's
// scratch and is never kept: Push allocates only what it publishes, an
// exact copy of a run that stands alone or the exact-size merged run.
func (d *Dim) Push(run Run) {
	j, total := len(d.Runs), len(run)
	for j > 0 && len(d.Runs[j-1]) <= 2*total {
		j--
		total += len(d.Runs[j])
	}
	if j == len(d.Runs) {
		d.Runs = append(d.Runs, slices.Clone(run))
		return
	}
	merged := mergeRuns(d.Col, d.Runs[j:], run, total)
	clear(d.Runs[j+1:]) // or the header array would keep the inputs alive
	d.Runs = append(d.Runs[:j], merged)
}

// mergeRuns merges adjacent runs, oldest first, and then newest into one
// run of total ids, newest first and two at a time inside the result
// itself: newest is copied to its end, then each older run is merged with
// what follows it into the space just before. The write position never
// passes the unread newer ids, so no intermediate run is allocated. Later
// runs hold higher ids, so taking the older run's id on a coordinate tie
// keeps equal coordinates in id order.
func mergeRuns(col chunk.List[int64], runs []Run, newest Run, total int) Run {
	out := make(Run, total)
	start := total - len(newest)
	copy(out[start:], newest)
	for r := len(runs) - 1; r >= 0; r-- {
		a, b := runs[r], out[start:]
		w, i, j := start-len(a), 0, 0
		for ; i < len(a); w++ {
			if j == len(b) || col.At(int(a[i])) <= col.At(int(b[j])) {
				out[w] = a[i]
				i++
			} else {
				out[w] = b[j]
				j++
			}
		}
		start -= len(a) // b[j:] is already in place
	}
	return out
}

// radixCutoff is the batch length from which sortRun radix-sorts: below it
// slices.SortFunc is faster than clearing and walking the digit counts. On
// BenchmarkSortRun the two cross between 32 and 64 ids.
const radixCutoff = 64

// sortRun sorts a batch's run, built in id order, into (col[id], id) order.
// scratch holds at least len(run) ids, which the radix sort overwrites.
func sortRun(col chunk.List[int64], run, scratch Run) {
	if len(run) < radixCutoff {
		slices.SortFunc(run, func(a, b int32) int {
			return cmp.Or(cmp.Compare(col.At(int(a)), col.At(int(b))), cmp.Compare(a, b))
		})
		return
	}
	radixSort(col, run, scratch)
}

// radixSort is an LSD radix sort of run on col[id]−min, one byte per pass
// over the bytes the run's span needs, ping-ponging between run and the
// first len(run) ids of scratch. It is stable, so a run built in id order
// comes out in (coordinate, id) order.
func radixSort(col chunk.List[int64], run, scratch Run) {
	lo, hi := col.At(int(run[0])), col.At(int(run[0]))
	for _, id := range run {
		lo, hi = min(lo, col.At(int(id))), max(hi, col.At(int(id)))
	}
	if lo == hi {
		return // one coordinate, as on a single-value categorical axis: id order is the order
	}
	span := uint64(hi - lo) // exact even when hi−lo overflows int64
	src, dst := run, scratch[:len(run)]
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		var count [256]int
		for _, id := range src {
			count[uint8(uint64(col.At(int(id))-lo)>>shift)]++
		}
		pos := 0
		for b, c := range count {
			count[b] = pos
			pos += c
		}
		for _, id := range src {
			b := uint8(uint64(col.At(int(id))-lo) >> shift)
			dst[count[b]] = id
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &run[0] { // an odd number of passes
		copy(run, src)
	}
}

// Restriction is a dimension on which a read excludes rows, with how many
// rows its interval selects there.
type Restriction struct{ Dim, N int }

// Restricted appends to out the dimensions on which q excludes some row,
// each with its candidate count, most selective first: a row inside q is
// among the first one's candidates, which the others then filter. A
// dimension whose interval holds every coordinate — the run ends give the
// extremes — needs no per-row test. q must have one interval per dimension.
// It only counts, so a read over many runs allocates nothing here.
func Restricted(dims []Dim, q region.Box, out []Restriction) []Restriction {
	for k := range dims {
		d := &dims[k]
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, run := range d.Runs {
			lo, hi = min(lo, d.Col.At(int(run[0]))), max(hi, d.Col.At(int(run[len(run)-1])))
		}
		if lo < q.Dims[k].Lo || hi >= q.Dims[k].Hi {
			n := 0
			for _, run := range d.Runs {
				n += len(d.Span(run, q.Dims[k]))
			}
			out = append(out, Restriction{k, n})
		}
	}
	slices.SortFunc(out, func(a, b Restriction) int { return cmp.Compare(a.N, b.N) })
	return out
}

// Selection is the ids of the rows a read keeps, in ascending order: the
// first All rows, or the listed ids, or the set bits of a bitset, one bit
// per row, which Release hands back to a pool.
type Selection struct {
	All    int
	ids    []int32
	bits   []uint64
	pooled *[]uint64
}

// bitsets recycles selections' bitsets: each dies with its read.
var bitsets = sync.Pool{New: func() any { return new([]uint64) }}

// Release returns the selection's bitset, if it has one, to the pool.
func (sel Selection) Release() {
	if sel.pooled != nil {
		*sel.pooled = sel.bits
		bitsets.Put(sel.pooled)
	}
}

// Count is the number of ids selected.
func (sel Selection) Count() int {
	n := sel.All + len(sel.ids)
	for _, word := range sel.bits {
		n += mathbits.OnesCount64(word)
	}
	return n
}

// AppendTo appends the selected ids to ids, in order.
func (sel Selection) AppendTo(ids []int32) []int32 {
	ids = slices.Grow(ids, sel.Count())
	for id := range sel.All {
		ids = append(ids, int32(id))
	}
	ids = append(ids, sel.ids...)
	for w, word := range sel.bits {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, int32(w*64+mathbits.TrailingZeros64(word)))
		}
	}
	return ids
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Select selects the ids of the first n rows that lie inside q, in
// ascending order. A box that restricts no dimension selects them all.
// Otherwise the most selective dimension's span gives the candidates and
// each other restricted dimension filters them in ascending id order, most
// selective first, reading its column forwards. More than 1/64 of the rows
// are marked in a pooled bitset, whose words the filters rebuild bit by
// bit; fewer are collected as ids, sorted and compacted in place, which is
// cheaper than clearing and walking n bits for a handful of rows. Neither
// filter branches on a row's coordinate: the test lo ≤ c < hi is the one
// unsigned comparison c−lo < hi−lo, whose result is added to a count or
// shifted into a word. A filter only sees candidates when the most
// selective interval selects a row, and each filtering interval selects at
// least as many, so none is empty: hi−lo, taken modulo 2^64, is its width.
//
// Listed ids go into the spare room of *ids, which is first grown to hold
// every candidate, so the filters drop ids in place.
func Select(dims []Dim, n int, q region.Box, ids *[]int32) Selection {
	if q.D() != len(dims) || n == 0 {
		return Selection{} // no row has a box of another dimensionality's coordinates
	}
	var buf [8]Restriction
	restricted := Restricted(dims, q, buf[:0])
	if len(restricted) == 0 {
		return Selection{All: n}
	}
	first, iv := &dims[restricted[0].Dim], q.Dims[restricted[0].Dim]
	if cand := restricted[0].N; 64*cand <= n {
		*ids = slices.Grow(*ids, cand)
		list := (*ids)[len(*ids):]
		for _, run := range first.Runs {
			list = append(list, first.Span(run, iv)...)
		}
		slices.Sort(list)
		for _, r := range restricted[1:] {
			col, lo, w := dims[r.Dim].Col, q.Dims[r.Dim].Lo, uint64(q.Dims[r.Dim].Hi-q.Dims[r.Dim].Lo)
			kept := 0
			for _, id := range list {
				list[kept] = id
				kept += int(b2u(uint64(col.At(int(id))-lo) < w))
			}
			list = list[:kept]
		}
		return Selection{ids: list}
	}
	pooled := bitsets.Get().(*[]uint64)
	bits := slices.Grow((*pooled)[:0], (n+63)/64)[:(n+63)/64]
	clear(bits)
	for _, run := range first.Runs {
		for _, id := range first.Span(run, iv) {
			bits[id/64] |= 1 << (id % 64)
		}
	}
	for _, r := range restricted[1:] {
		col, lo, w := dims[r.Dim].Col, q.Dims[r.Dim].Lo, uint64(q.Dims[r.Dim].Hi-q.Dims[r.Dim].Lo)
		for ch := range col.Chunks() { // a chunk's rows are whole words: chunk.Len is a multiple of 64
			c, words := col.Chunk(ch), bits[ch*chunk.Len/64:min(len(bits), (ch+1)*chunk.Len/64)]
			for i, word := range words {
				keep := uint64(0)
				for set := word; set != 0; set &= set - 1 {
					b := mathbits.TrailingZeros64(set)
					keep |= b2u(uint64(c[i*64+b]-lo) < w) << b
				}
				words[i] = keep
			}
		}
	}
	return Selection{bits: bits, pooled: pooled}
}
