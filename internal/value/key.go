package value

import "math"

// Key is one of the two row-key equivalences the local executor hashes and
// compares under. Both are allocation-free and typed: a key is the sequence
// of (kind, payload) pairs of its columns, never a rendered string, so a
// separator byte inside a string can never make two different keys meet.
//
// Shared edge cases, kept exactly as the string keys they replace had them:
// NULL equals NULL, every NaN equals every other NaN, and values of
// different kinds never meet (Int(1) is not String("1")).
type Key uint8

const (
	// ExactKey is row identity, for deduplication: two values are equal iff
	// they have the same kind and the same payload, floats by bit pattern —
	// so Int(2) and Float(2.0) differ, and so do 0.0 and -0.0.
	ExactKey Key = iota
	// NumericKey is join and GROUP BY equality: as ExactKey, except that a
	// Float holding an integer in int64 range is that Int — Int(2) meets
	// Float(2.0), and -0.0 meets 0. Other floats (2.5, ±Inf) meet only
	// themselves.
	NumericKey
)

const (
	hashSeed  = 0xcbf29ce484222325 // FNV-1a offset basis
	hashPrime = 0x100000001b3      // FNV-1a prime
	hashMul   = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
)

// canon reduces v to the (kind, payload) pair the key compares. A string's
// payload is its dictionary id, which interning makes canonical.
func (k Key) canon(v Value) (Kind, uint64) {
	if v.K != Float {
		return v.K, v.x
	}
	f := v.Float64()
	if k == NumericKey && f >= -(1<<63) && f < 1<<63 {
		if i := int64(f); float64(i) == f {
			return Int, uint64(i)
		}
	}
	if f != f { // every NaN is one key
		return Float, math.Float64bits(math.NaN())
	}
	return Float, v.x
}

func (k Key) mix(h uint64, v Value) uint64 {
	kind, bits := k.canon(v)
	h = (h ^ uint64(kind)) * hashPrime
	h = (h ^ bits) * hashMul
	return h ^ h>>32
}

func (k Key) equal(v, w Value) bool {
	vk, vb := k.canon(v)
	wk, wb := k.canon(w)
	return vk == wk && vb == wb
}

// HashRow hashes every column of r.
func (k Key) HashRow(r Row) uint64 {
	h := uint64(hashSeed)
	for _, v := range r {
		h = k.mix(h, v)
	}
	return h
}

// EqualRows reports whether a and b have the same width and equal columns.
func (k Key) EqualRows(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !k.equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// HashCols hashes the columns cols of r, in that order. Rows that EqualCols
// calls equal hash alike.
func (k Key) HashCols(r Row, cols []int) uint64 {
	h := uint64(hashSeed)
	for _, c := range cols {
		h = k.mix(h, r[c])
	}
	return h
}

// EqualCols reports whether a's columns ac equal b's columns bc pairwise;
// the two lists must have the same length.
func (k Key) EqualCols(a Row, ac []int, b Row, bc []int) bool {
	for i, c := range ac {
		if !k.equal(a[c], b[bc[i]]) {
			return false
		}
	}
	return true
}

// HashIndex is a chained hash table from 64-bit key hashes to dense ids
// 0, 1, 2, ... handed out in insertion order. It stores no keys: the caller
// keeps the keyed things in a slice indexed by id and confirms each
// candidate with the matching Key equality. Chains run through one int32
// slice — no per-entry allocation — and list ids in insertion order.
type HashIndex struct {
	heads, tails []int32 // bucket -> id+1 of its first and last entry, 0 = empty
	next         []int32 // id -> id+1 of the next entry in its bucket, 0 = end
	hashes       []uint64
}

// NewHashIndex returns an index sized for n entries; it grows past that.
func NewHashIndex(n int) *HashIndex {
	size := 8
	for size < n {
		size <<= 1
	}
	return &HashIndex{
		heads: make([]int32, size), tails: make([]int32, size),
		next: make([]int32, 0, n), hashes: make([]uint64, 0, n),
	}
}

// Len returns the number of entries, which is also the next id.
func (x *HashIndex) Len() int { return len(x.hashes) }

// Add appends an entry with hash h and returns its id.
func (x *HashIndex) Add(h uint64) int {
	if len(x.hashes) == len(x.heads) { // full: re-add everything to twice the buckets
		old := x.hashes
		*x = *NewHashIndex(2 * len(old))
		for _, oh := range old {
			x.Add(oh)
		}
	}
	id := len(x.hashes)
	x.hashes, x.next = append(x.hashes, h), append(x.next, 0)
	b := h & uint64(len(x.heads)-1)
	if t := x.tails[b]; t != 0 {
		x.next[t-1] = int32(id + 1)
	} else {
		x.heads[b] = int32(id + 1)
	}
	x.tails[b] = int32(id + 1)
	return id
}

// First returns the lowest id whose hash is h, or -1.
func (x *HashIndex) First(h uint64) int {
	return x.scan(x.heads[h&uint64(len(x.heads)-1)], h)
}

// Next returns the next id after id with the same hash, or -1.
func (x *HashIndex) Next(id int) int {
	return x.scan(x.next[id], x.hashes[id])
}

func (x *HashIndex) scan(link int32, h uint64) int {
	for link != 0 {
		if x.hashes[link-1] == h {
			return int(link - 1)
		}
		link = x.next[link-1]
	}
	return -1
}

// Lookup returns the id of the entry with hash h whose row — rows is indexed
// by id — equals r under k, or -1.
func (x *HashIndex) Lookup(k Key, rows []Row, r Row, h uint64) int {
	id := x.First(h)
	for id >= 0 && !k.EqualRows(rows[id], r) {
		id = x.Next(id)
	}
	return id
}
