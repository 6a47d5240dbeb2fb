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

// Canonical returns the value k compares v as: v and w are equal under k iff
// their Canonical values are ==.
func (k Key) Canonical(v Value) Value {
	kind, x := k.canon(v)
	return Value{K: kind, x: x}
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

// KeyTable is an open-addressing hash table from row keys to ids below 2^29
// that the caller assigns; id stands for the row rows(id) returns, rows
// being what the caller passes in, so a table compares rows by id however
// they are held. Keys are on the table's columns (nil: the whole row). A
// slot holds its key inline: a one-column key's canonical (kind, payload),
// so a hit reads no row, or a wider key's 64-bit hash, checked on the row.
// Slots are 12 bytes, probed linearly, at most 3/4 full as the table grows
// and 1/3 full in a join's build side, sized up front, where most probes
// miss.
type KeyTable struct {
	key   Key
	cols  []int
	slots []keySlot
	n     int
}

// keySlot holds a key's payload or hash in lo and hi, and in tag the id+1
// above the bit inline and the payload's kind; tag 0 is an empty slot.
type keySlot struct{ lo, hi, tag uint32 }

const inline = 4

// NewKeyTable returns a table for n entries keyed under k on cols.
func NewKeyTable(k Key, cols []int, n int) *KeyTable {
	return &KeyTable{key: k, cols: cols, slots: make([]keySlot, max(8, 3*n))}
}

// Find sets ids[p] to the id under probe[p]'s key on rc (paired with the
// table's columns), or -1.
func (t *KeyTable) Find(rows func(id int) Row, probe []Row, rc []int, ids []int32) {
	for p, r := range probe {
		var s *keySlot
		if len(rc) == 1 {
			s, _ = t.inlineSlot(r[rc[0]])
		} else {
			s, _ = t.slot(rows, r, rc)
		}
		ids[p] = int32(s.tag>>3) - 1
	}
}

// Insert stores id under r's key unless it holds one, and returns the id it
// held, or -1; a new rows(id) must have r's key before the next call.
func (t *KeyTable) Insert(rows func(id int) Row, r Row, id int) int { return t.put(rows, r, id, false) }

// Put is Insert, except that id replaces the id the key holds.
func (t *KeyTable) Put(rows func(id int) Row, r Row, id int) int { return t.put(rows, r, id, true) }

// RowsOf returns the rows func of a list: id stands for rows[id].
func RowsOf(rows []Row) func(id int) Row { return func(id int) Row { return rows[id] } }

// Reset empties t, keeping its slots for the next keys.
func (t *KeyTable) Reset() {
	clear(t.slots)
	t.n = 0
}

// Grow makes room for m more entries, sizing the table for them at once.
func (t *KeyTable) Grow(m int) {
	if 4*(t.n+m) <= 3*len(t.slots) {
		return
	}
	old, n := t.slots, t.n+m
	t.slots = make([]keySlot, max(2*len(old), n+n/3+1))
	for _, s := range old {
		if s.tag != 0 { // s's id bits match no slot: match finds a free one
			t.slots[t.match(t.home(s.hash()), s)] = s
		}
	}
}

func (t *KeyTable) put(rows func(id int) Row, r Row, id int, replace bool) int {
	if 4*t.n >= 3*len(t.slots) {
		t.Grow(1)
	}
	s, key := t.slot(rows, r, t.cols)
	was := int(s.tag>>3) - 1
	if was < 0 {
		t.n++
	} else if !replace {
		return was
	}
	key.tag |= uint32(id+1) << 3
	*s = key
	return was
}

// hash is the hash of a slot's key: a wide key's slot holds its hash, and a
// one-column key's payload is mixed by one multiplication.
func (s keySlot) hash() uint64 {
	h := uint64(s.hi)<<32 | uint64(s.lo)
	if s.tag&inline != 0 {
		h = (h ^ hashSeed) * hashMul
	}
	return h
}

// slot returns the slot holding the key r has on its columns rc, or the
// empty slot where it would go, and that key as a slot holds it, id unset.
func (t *KeyTable) slot(rows func(id int) Row, r Row, rc []int) (*keySlot, keySlot) {
	var key keySlot
	switch {
	case len(rc) == 1:
		return t.inlineSlot(r[rc[0]])
	case rc == nil && len(r) == 1:
		return t.inlineSlot(r[0])
	case rc == nil:
		key.lo, key.hi = split(t.key.HashRow(r))
	default:
		key.lo, key.hi = split(t.key.HashCols(r, rc))
	}
	for i := t.match(t.home(key.hash()), key); ; i = t.match(t.after(i), key) {
		s := &t.slots[i]
		if s.tag == 0 || rc == nil && t.key.EqualRows(rows(int(s.tag>>3-1)), r) ||
			rc != nil && t.key.EqualCols(rows(int(s.tag>>3-1)), t.cols, r, rc) {
			return s, key
		}
	}
}

// inlineSlot is slot for the one-column key v, held inline.
func (t *KeyTable) inlineSlot(v Value) (*keySlot, keySlot) {
	kind, bits := t.key.canon(v)
	key := keySlot{uint32(bits), uint32(bits >> 32), uint32(kind) | inline}
	return &t.slots[t.match(t.home(key.hash()), key)], key
}

func split(h uint64) (lo, hi uint32) { return uint32(h), uint32(h >> 32) }

// match returns the first slot from i on that is empty or holds key's bits.
// A slot ends the probe when its tag or its difference from key is 0: one
// test, so whether the home slot is empty (as a join's probe mostly finds
// it) is not a branch to predict.
func (t *KeyTable) match(i int, key keySlot) int {
	for s := &t.slots[i]; min(s.tag, (s.lo^key.lo)|(s.hi^key.hi)|(s.tag&7^key.tag)) != 0; s = &t.slots[i] {
		i = t.after(i)
	}
	return i
}

// home scales h's top 32 bits to a slot number.
func (t *KeyTable) home(h uint64) int { return int((h >> 32) * uint64(len(t.slots)) >> 32) }

func (t *KeyTable) after(i int) int {
	if i++; i == len(t.slots) {
		return 0
	}
	return i
}
