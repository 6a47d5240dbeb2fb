// Package region implements the d-dimensional box algebra that underlies
// PayLess's semantic query rewriting (paper §4.2).
//
// Every RESTful call to the data market is a conjunctive query, so the set of
// tuples it retrieves projects onto a hyper-rectangle ("box") over the
// table's queryable attributes. Each attribute is mapped onto an int64
// coordinate axis: numeric attributes use their natural values, dates use
// YYYYMMDD integers, and categorical attributes use their index in the
// catalog's ordered domain. All intervals are half-open [Lo, Hi).
//
// The package provides box intersection/containment, subtraction of a set of
// stored boxes from a query box into disjoint elementary boxes (the paper's
// region V), and separator-set extraction (the paper's S_i) used by the
// bounding-box enumeration of Algorithm 1.
package region

import (
	"fmt"
	"sort"
	"strings"
)

// Interval is a half-open range [Lo, Hi) on an int64 axis.
type Interval struct {
	Lo, Hi int64
}

// Point returns the unit interval [v, v+1) representing a single coordinate.
func Point(v int64) Interval { return Interval{Lo: v, Hi: v + 1} }

// Empty reports whether the interval contains no coordinates.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Width returns the number of coordinates in the interval (0 if empty).
func (iv Interval) Width() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether o lies fully within iv.
func (iv Interval) Contains(o Interval) bool {
	return o.Empty() || (iv.Lo <= o.Lo && o.Hi <= iv.Hi)
}

// ContainsCoord reports whether the coordinate v lies within iv.
func (iv Interval) ContainsCoord(v int64) bool { return iv.Lo <= v && v < iv.Hi }

// Intersect returns the overlap of iv and o and whether it is non-empty.
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	r := Interval{Lo: max64(iv.Lo, o.Lo), Hi: min64(iv.Hi, o.Hi)}
	if r.Empty() {
		return Interval{}, false
	}
	return r, true
}

// Equal reports whether two intervals have identical bounds.
func (iv Interval) Equal(o Interval) bool { return iv == o }

// String renders the interval as [lo,hi).
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// Box is a d-dimensional hyper-rectangle: the cross product of one interval
// per dimension. A box with any empty dimension is empty.
type Box struct {
	Dims []Interval
}

// NewBox builds a box from the given per-dimension intervals.
func NewBox(dims ...Interval) Box {
	d := make([]Interval, len(dims))
	copy(d, dims)
	return Box{Dims: d}
}

// D returns the dimensionality of the box.
func (b Box) D() int { return len(b.Dims) }

// Empty reports whether the box contains no points.
func (b Box) Empty() bool {
	for _, iv := range b.Dims {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// Volume returns the number of grid points in the box as a float64
// (float to avoid int64 overflow on wide domains).
func (b Box) Volume() float64 {
	v := 1.0
	for _, iv := range b.Dims {
		v *= float64(iv.Width())
	}
	return v
}

// Clone returns a deep copy of the box.
func (b Box) Clone() Box {
	d := make([]Interval, len(b.Dims))
	copy(d, b.Dims)
	return Box{Dims: d}
}

// Contains reports whether o lies fully within b. Both boxes must share
// dimensionality; mismatched boxes are never contained.
func (b Box) Contains(o Box) bool {
	if len(b.Dims) != len(o.Dims) {
		return false
	}
	if o.Empty() {
		return true
	}
	for i := range b.Dims {
		if !b.Dims[i].Contains(o.Dims[i]) {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of b and o and whether it is non-empty.
func (b Box) Intersect(o Box) (Box, bool) {
	if len(b.Dims) != len(o.Dims) {
		return Box{}, false
	}
	out := make([]Interval, len(b.Dims))
	for i := range b.Dims {
		iv, ok := b.Dims[i].Intersect(o.Dims[i])
		if !ok {
			return Box{}, false
		}
		out[i] = iv
	}
	return Box{Dims: out}, true
}

// OverlapVolume returns the volume of b's overlap with o and whether they
// overlap, without building the intersection: it multiplies the same widths
// in the same order as Intersect(o) then Volume, so the float is identical.
func (b Box) OverlapVolume(o Box) (float64, bool) {
	if len(b.Dims) != len(o.Dims) {
		return 0, false
	}
	v := 1.0
	for i := range b.Dims {
		iv, ok := b.Dims[i].Intersect(o.Dims[i])
		if !ok {
			return 0, false
		}
		v *= float64(iv.Width())
	}
	return v, true
}

// Overlaps reports whether b and o share at least one point.
func (b Box) Overlaps(o Box) bool {
	_, ok := b.OverlapVolume(o)
	return ok
}

// Equal reports whether two boxes have identical bounds in every dimension.
func (b Box) Equal(o Box) bool {
	if len(b.Dims) != len(o.Dims) {
		return false
	}
	for i := range b.Dims {
		if b.Dims[i] != o.Dims[i] {
			return false
		}
	}
	return true
}

// String renders the box as a cross product of intervals.
func (b Box) String() string {
	parts := make([]string, len(b.Dims))
	for i, iv := range b.Dims {
		parts[i] = iv.String()
	}
	return strings.Join(parts, "x")
}

// Key renders a canonical map key for the box.
func (b Box) Key() string { return b.String() }

// subtractOne appends p \ c to out as at most 2*d disjoint boxes. A p that
// misses c is appended as it is, allocating nothing.
func subtractOne(out []Box, p, c Box) []Box {
	if !p.Overlaps(c) {
		return append(out, p)
	}
	x, _ := p.Intersect(c)
	if x.Equal(p) {
		return out
	}
	cur := p.Clone()
	for d := range p.Dims {
		if cur.Dims[d].Lo < x.Dims[d].Lo {
			left := cur.Clone()
			left.Dims[d].Hi = x.Dims[d].Lo
			out = append(out, left)
			cur.Dims[d].Lo = x.Dims[d].Lo
		}
		if cur.Dims[d].Hi > x.Dims[d].Hi {
			right := cur.Clone()
			right.Dims[d].Lo = x.Dims[d].Hi
			out = append(out, right)
			cur.Dims[d].Hi = x.Dims[d].Hi
		}
	}
	return out
}

// DefaultMaxPieces bounds the number of elementary boxes Subtract produces.
// Subtracting n covered boxes from a d-dimensional query can blow up to
// O((2d)^n) pieces in the worst case; past this cap the decomposition stops
// refining and conservatively keeps the coarser pieces (see SubtractBounded).
const DefaultMaxPieces = 2048

// Subtract decomposes q minus the union of covered into a set of disjoint
// boxes — the paper's elementary boxes E of the uncovered region V. The
// result is empty when q is fully covered. Covered boxes with mismatched
// dimensionality are ignored. The decomposition is bounded at
// DefaultMaxPieces pieces; see SubtractBounded for the fallback guarantee.
func Subtract(q Box, covered []Box) []Box {
	pieces, _ := SubtractBounded(q, covered, DefaultMaxPieces)
	return pieces
}

// SubtractBounded is Subtract with an explicit piece cap. Covered boxes are
// processed largest-overlap-first (stable on ties), which shrinks the
// remainder fastest and keeps intermediate piece counts low. If subtracting
// a covered box would push the piece count past maxPieces, that box is
// skipped and truncated is reported true: the result then over-covers the
// true remainder (the skipped box's overlap stays in some piece) but never
// under-covers it — callers may re-fetch data they already own, but a
// "covered" verdict from an exact (non-truncated) empty result is always
// sound. maxPieces <= 0 means unbounded.
func SubtractBounded(q Box, covered []Box, maxPieces int) (pieces []Box, truncated bool) {
	if q.Empty() {
		return nil, false
	}
	// Keep only boxes that actually overlap q, ordered by overlap volume
	// descending. Sorting is stable on the original order so the
	// decomposition stays deterministic across runs.
	type cand struct {
		box Box
		vol float64
	}
	cands := make([]cand, 0, len(covered))
	for _, c := range covered {
		if c.Empty() || len(c.Dims) != len(q.Dims) {
			continue
		}
		vol, ok := q.OverlapVolume(c)
		if !ok {
			continue
		}
		cands = append(cands, cand{box: c, vol: vol})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].vol > cands[j].vol })

	pieces = []Box{q}
	for _, c := range cands {
		next := pieces[:0:0]
		for _, p := range pieces {
			next = subtractOne(next, p, c.box)
		}
		if maxPieces > 0 && len(next) > maxPieces {
			truncated = true
			continue // keep the coarser pieces: over-fetch, never under-cover
		}
		pieces = next
		if len(pieces) == 0 {
			return nil, truncated
		}
	}
	return pieces, truncated
}

// CoveredBy reports whether q is fully covered by the union of the boxes.
func CoveredBy(q Box, boxes []Box) bool { return len(Subtract(q, boxes)) == 0 }

// SeparatorSets collects, for each dimension, the sorted distinct edge
// coordinates of the given boxes — the paper's separator sets S_i. The
// extent of any candidate bounding box on dimension i is picked from two
// values of S_i.
func SeparatorSets(boxes []Box) [][]int64 {
	if len(boxes) == 0 {
		return nil
	}
	d := boxes[0].D()
	sets := make([][]int64, d)
	for i := 0; i < d; i++ {
		seen := make(map[int64]struct{})
		for _, b := range boxes {
			if b.D() != d {
				continue
			}
			seen[b.Dims[i].Lo] = struct{}{}
			seen[b.Dims[i].Hi] = struct{}{}
		}
		s := make([]int64, 0, len(seen))
		for v := range seen {
			s = append(s, v)
		}
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		sets[i] = s
	}
	return sets
}

// BoundingBox returns the minimum box enclosing all the given boxes.
func BoundingBox(boxes []Box) (Box, bool) {
	if len(boxes) == 0 {
		return Box{}, false
	}
	out := boxes[0].Clone()
	for _, b := range boxes[1:] {
		if b.D() != out.D() {
			return Box{}, false
		}
		for i := range out.Dims {
			out.Dims[i].Lo = min64(out.Dims[i].Lo, b.Dims[i].Lo)
			out.Dims[i].Hi = max64(out.Dims[i].Hi, b.Dims[i].Hi)
		}
	}
	return out, true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
