package rowidx

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"payless/internal/region"
)

// TestSelectMatchesScan indexes random rows on three dimensions in batches
// of 1 to 300, so the runs merge in every shape, and checks Select against a
// per-row scan after every batch, on boxes that restrict no dimension, one
// or several, select nothing or are empty, on both sides of the bitset
// cutoff. A Clone taken before a batch must still select as it did.
func TestSelectMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			spans := []int64{4, 50, 1 << 20}
			dims := make([]Dim, len(spans))
			n := 0
			box := func() region.Box {
				q := region.Box{Dims: make([]region.Interval, len(spans))}
				for k, span := range spans {
					lo, hi := rng.Int63n(span+2)-1, rng.Int63n(span+2)-1
					if rng.Intn(4) > 0 && lo > hi {
						lo, hi = hi, lo
					}
					if rng.Intn(3) == 0 {
						lo, hi = -1, span+1
					}
					q.Dims[k] = region.Interval{Lo: lo, Hi: hi}
				}
				return q
			}
			scan := func(dims []Dim, n int, q region.Box) (want []int32) {
			row:
				for id := range n {
					for k := range dims {
						if !q.Dims[k].ContainsCoord(dims[k].Col.At(id)) {
							continue row
						}
					}
					want = append(want, int32(id))
				}
				return want
			}
			for batch := range 12 {
				held, heldN := make([]Dim, len(dims)), n
				for k := range dims {
					held[k] = dims[k].Clone()
				}
				m := 1 + rng.Intn(300)
				for k, span := range spans {
					for range m {
						dims[k].Col.Append(rng.Int63n(span))
					}
					dims[k].Add(n, m)
				}
				n += m
				for trial := range 60 {
					q := box()
					for _, c := range []struct {
						dims []Dim
						n    int
					}{{dims, n}, {held, heldN}} {
						prefix := []int32{-1}
						sel := Select(c.dims, c.n, q, &prefix)
						got := sel.AppendTo(prefix)
						count := sel.Count()
						sel.Release()
						if want := scan(c.dims, c.n, q); !slices.Equal(got[1:], want) || count != len(want) || got[0] != -1 {
							t.Fatalf("batch %d trial %d, %d rows, box %v: selected %d (count %d), the scan %d",
								batch, trial, c.n, q, len(got)-1, count, len(want))
						}
					}
				}
			}
		})
	}
}
