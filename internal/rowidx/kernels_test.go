package rowidx

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"payless/internal/chunk"
)

// kWayMergeRuns is the previous mergeRuns, kept as the reference: one pass
// that takes, id by id, the run head with the smallest coordinate, the
// earliest run on a tie.
func kWayMergeRuns(col []int64, runs []Run, total int) Run {
	runs = slices.Clone(runs) // consumed from the front below
	out := make(Run, 0, total)
	for len(out) < total {
		best := -1
		for r, run := range runs {
			if len(run) > 0 && (best < 0 || col[run[0]] < col[runs[best][0]]) {
				best = r
			}
		}
		out = append(out, runs[best][0])
		runs[best] = runs[best][1:]
	}
	return out
}

// byCoordThenID orders ids by their coordinate in col, then by id: the
// order sortRun and mergeRuns must produce.
func byCoordThenID(col []int64) func(a, b int32) int {
	return func(a, b int32) int {
		if c := cmp.Compare(col[a], col[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
}

// randomRun appends n coordinates drawn by coord to col and returns it with
// their ids in id order: the shape Add builds before sorting.
func randomRun(col []int64, n int, coord func() int64) ([]int64, Run) {
	run := make(Run, n)
	for i := range run {
		run[i] = int32(len(col))
		col = append(col, coord())
	}
	return col, run
}

// coordDrawers are the coordinate distributions the kernels are checked on:
// many duplicates, a date-like span, a key-like span, both signs, and the
// whole int64 range (hi−lo overflows).
func coordDrawers(rng *rand.Rand) map[string]func() int64 {
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	return map[string]func() int64{
		"dups":     func() int64 { return rng.Int63n(4) },
		"date":     func() int64 { return 20140401 + rng.Int63n(120) },
		"keys":     func() int64 { return rng.Int63n(6_000_000) },
		"signed":   func() int64 { return rng.Int63n(1<<40) - 1<<39 },
		"extremes": func() int64 { return extremes[rng.Intn(len(extremes))] },
		"full": func() int64 {
			if rng.Intn(4) == 0 {
				return extremes[rng.Intn(len(extremes))]
			}
			return int64(rng.Uint64())
		},
	}
}

// TestSortRunMatchesSortFunc checks sortRun against the comparison sort it
// replaces, on batches on both sides of radixCutoff, sorting in a scratch
// buffer that is longer than the run and left dirty between trials, as
// Add's pooled buffer is between batches: the sort must not read
// what it finds there, nor write past len(run) of it.
func TestSortRunMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{0, 1, 2, 17, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 5000}
	const sentinel = -7
	scratch := make(Run, 5000+1)
	for i := range scratch {
		scratch[i] = rng.Int31()
	}
	for name, coord := range coordDrawers(rng) {
		for _, n := range sizes {
			for trial := 0; trial < 4; trial++ {
				// Ids start past a prefix of other rows' coordinates, as a
				// batch's do in its table's column.
				col := make([]int64, rng.Intn(1000))
				col, in := randomRun(col, n, coord)
				want := slices.Clone(in)
				slices.SortFunc(want, byCoordThenID(col))
				got := slices.Clone(in)
				scratch[n] = sentinel
				sortRun(chunk.View(nil, col), got, scratch)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %d ids: sortRun differs from SortFunc(byCoordThenID)", name, n)
				}
				if n > 0 { // below the cutoff too
					radix := slices.Clone(in)
					radixSort(chunk.View(nil, col), radix, scratch)
					if !slices.Equal(radix, want) {
						t.Fatalf("%s, %d ids: radixSort differs from SortFunc(byCoordThenID)", name, n)
					}
				}
				if scratch[n] != sentinel {
					t.Fatalf("%s, %d ids: the sort wrote past its run's length of scratch", name, n)
				}
			}
		}
	}
}

// TestMergeRunsMatchesKWayMerge checks the newest-first two-way merges
// against the one-pass k-way merge on tails of 2 to 6 sorted runs of
// contiguous id ranges, oldest first.
func TestMergeRunsMatchesKWayMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for name, coord := range coordDrawers(rng) {
		for trial := 0; trial < 40; trial++ {
			runs := make([]Run, 2+rng.Intn(5))
			var col []int64
			total := 0
			for r := range runs {
				n := 1 + rng.Intn(300)
				col, runs[r] = randomRun(col, n, coord)
				sortRun(chunk.View(nil, col), runs[r], make(Run, n))
				total += n
			}
			want := kWayMergeRuns(col, runs, total)
			got := mergeRuns(chunk.View(nil, col), slices.Clone(runs[:len(runs)-1]), runs[len(runs)-1], total)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, trial %d (%d runs): merges differ", name, trial, len(runs))
			}
			if len(got) != cap(got) {
				t.Fatalf("%s: merged run has %d ids in a %d-id array", name, len(got), cap(got))
			}
		}
	}
}

// BenchmarkSortRun measures the radix sort against slices.SortFunc around
// radixCutoff, on a date-like span (two byte passes) and a key-like one
// (three):
//
//	go test ./internal/rowidx/ -run '^$' -bench SortRun -benchmem
func BenchmarkSortRun(b *testing.B) {
	for _, span := range []int64{1 << 16, 1 << 23} {
		for _, n := range []int{16, 32, 64, 128, 512} {
			rng := rand.New(rand.NewSource(1))
			col, in := randomRun(nil, n, func() int64 { return rng.Int63n(span) })
			run, scratch, chunked := make(Run, n), make(Run, n), chunk.View(nil, col)
			for _, k := range []struct {
				name string
				sort func(Run)
			}{
				{"sortfunc", func(r Run) { slices.SortFunc(r, byCoordThenID(col)) }},
				{"radix", func(r Run) { radixSort(chunked, r, scratch) }},
			} {
				b.Run(fmt.Sprintf("span=%d/n=%d/%s", span, n, k.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(run, in)
						k.sort(run)
					}
				})
			}
		}
	}
}
