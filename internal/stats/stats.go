// Package stats implements PayLess's updatable statistics (paper §3 step 5.4,
// §4.3). The optimizer starts from the market's basic statistics only —
// attribute domains and table cardinality — using the textbook uniform
// assumption, and refines its knowledge from query feedback: every executed
// RESTful call reports the exact number of tuples found in its box.
//
// The paper plugs in ISOMER [44] and notes the system "is indeed amenable for
// any updatable statistic". This package implements a feedback histogram in
// the STHoles/ISOMER family: each table's queryable space is maintained as a
// partition of disjoint buckets; feedback splits the overlapped buckets along
// the observed box and rescales the inside pieces to the observed count, so
// the histogram stays consistent with all non-conflicting feedback and
// converges as more of the space is observed.
package stats

import (
	"sync"
	"sync/atomic"

	"payless/internal/region"
)

// Estimator estimates how many rows of a table fall inside a box, and
// accepts execution feedback. Implementations must be safe for concurrent
// use.
type Estimator interface {
	// Estimate returns the expected number of rows of the table inside b.
	Estimate(table string, b region.Box) float64
	// Feedback records that an executed call covering box b returned n rows.
	Feedback(table string, b region.Box, n int64)
}

// bucket is one cell of a table's partition: a box and the estimated number
// of rows inside it. Buckets of a table are pairwise disjoint and their
// union is the table's full queryable space.
type bucket struct {
	box   region.Box
	count float64
}

type tableStats struct {
	full    region.Box
	buckets []bucket
}

// Store is the default Estimator. With learning enabled it refines bucket
// partitions from feedback; with learning disabled it behaves as the plain
// uniform estimator the paper uses before any statistics are collected.
type Store struct {
	mu       sync.RWMutex
	tables   map[string]*tableStats
	learning bool
	// maxBuckets caps the partition size per table; feedback that would
	// exceed the cap degrades to proportional rescaling without splitting.
	maxBuckets int
	// version counts mutations (Register and effective Feedback). The plan
	// cache snapshots it: a moved version means estimates may have changed
	// enough to flip the winning plan, so cached skeletons are discarded.
	version atomic.Uint64
}

// New returns a learning statistics store (feedback refines estimates).
func New() *Store {
	return &Store{tables: make(map[string]*tableStats), learning: true, maxBuckets: 8192}
}

// NewUniform returns a store that ignores feedback and always estimates by
// the uniform-distribution assumption over the published cardinality.
func NewUniform() *Store {
	return &Store{tables: make(map[string]*tableStats), learning: false, maxBuckets: 1}
}

// Register declares a table's queryable space and published cardinality.
// Re-registering resets the table's statistics.
func (s *Store) Register(table string, full region.Box, card int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[table] = &tableStats{
		full:    full.Clone(),
		buckets: []bucket{{box: full.Clone(), count: float64(card)}},
	}
	s.version.Add(1)
}

// Version returns the store's mutation counter. NewUniform stores never
// learn, so their version only moves on Register.
func (s *Store) Version() uint64 { return s.version.Load() }

// Registered reports whether the table is known to the store.
func (s *Store) Registered(table string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.tables[table]
	return ok
}

// BucketCount returns the current partition size of the table (for tests
// and introspection).
func (s *Store) BucketCount(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[table]; ok {
		return len(t.buckets)
	}
	return 0
}

// Estimate returns the expected number of rows of the table inside b,
// assuming uniformity within each bucket. Unknown tables estimate 0.
func (s *Store) Estimate(table string, b region.Box) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok || b.Empty() {
		return 0
	}
	var est float64
	for _, bk := range t.buckets {
		xv, ok := bk.box.OverlapVolume(b)
		if !ok {
			continue
		}
		bv := bk.box.Volume()
		if bv <= 0 {
			continue
		}
		est += bk.count * (xv / bv)
	}
	return est
}

// Feedback records that a call covering box b observed exactly n rows.
// Buckets partially overlapping b are split along b so the inside pieces can
// be rescaled to sum to n; outside pieces keep their proportional share.
// When the partition cap is reached, only rescaling happens (no splits), so
// memory stays bounded at the cost of precision.
func (s *Store) Feedback(table string, b region.Box, n int64) {
	if !s.learning {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok || b.Empty() {
		return
	}
	s.version.Add(1)
	canSplit := len(t.buckets) < s.maxBuckets
	// A split bucket becomes at most 1+2d pieces; most buckets pass as they are.
	next := make([]bucket, 0, len(t.buckets)+2*b.D())
	var inside []int // indexes into next of pieces inside b
	for _, bk := range t.buckets {
		if !bk.box.Overlaps(b) {
			next = append(next, bk)
			continue
		}
		if b.Contains(bk.box) {
			// Whole bucket inside b.
			inside = append(inside, len(next))
			next = append(next, bk)
			continue
		}
		if !canSplit {
			// Degraded mode: treat the overlap fraction of this bucket as
			// inside, without splitting. We approximate by keeping the bucket
			// whole and scaling it later by the blended factor; to stay
			// simple and conservative we leave it untouched.
			next = append(next, bk)
			continue
		}
		x, _ := bk.box.Intersect(b)
		bv := bk.box.Volume()
		frac := 0.0
		if bv > 0 {
			frac = x.Volume() / bv
		}
		insidePiece := bucket{box: x, count: bk.count * frac}
		inside = append(inside, len(next))
		next = append(next, insidePiece)
		for _, rem := range region.Subtract(bk.box, []region.Box{x}) {
			remFrac := 0.0
			if bv > 0 {
				remFrac = rem.Volume() / bv
			}
			next = append(next, bucket{box: rem, count: bk.count * remFrac})
		}
	}
	// Rescale the inside pieces so they sum to the observed count.
	var sum float64
	for _, i := range inside {
		sum += next[i].count
	}
	switch {
	case len(inside) == 0:
		// Nothing splittable overlapped; no refinement possible.
	case sum <= 0:
		// Distribute the observed count by volume.
		var vol float64
		for _, i := range inside {
			vol += next[i].box.Volume()
		}
		for _, i := range inside {
			if vol > 0 {
				next[i].count = float64(n) * next[i].box.Volume() / vol
			} else {
				next[i].count = float64(n) / float64(len(inside))
			}
		}
	default:
		scale := float64(n) / sum
		for _, i := range inside {
			next[i].count *= scale
		}
	}
	t.buckets = next
}

// Total returns the store's current estimate of the table's cardinality.
func (s *Store) Total(table string) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return 0
	}
	var sum float64
	for _, bk := range t.buckets {
		sum += bk.count
	}
	return sum
}
