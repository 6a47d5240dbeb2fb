package semstore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kWayMergeRuns is the previous mergeRuns, kept as the reference: one pass
// that takes, entry by entry, the smallest head across every run, the
// earliest run on a tie.
func kWayMergeRuns(runs []rowRun, total int) rowRun {
	runs = slices.Clone(runs) // consumed from the front below
	out := make(rowRun, 0, total)
	for len(out) < total {
		best := -1
		for r, run := range runs {
			if len(run) > 0 && (best < 0 || run[0].coord < runs[best][0].coord) {
				best = r
			}
		}
		out = append(out, runs[best][0])
		runs[best] = runs[best][1:]
	}
	return out
}

// randomRun returns n entries in id order starting at id first, with
// coordinates drawn by coord: the shape addRows builds before sorting.
func randomRun(first, n int, coord func() int64) rowRun {
	run := make(rowRun, n)
	for i := range run {
		run[i] = rowEntry{coord: coord(), id: first + i}
	}
	return run
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
// replaces, on batches on both sides of radixCutoff.
func TestSortRunMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{0, 1, 2, 17, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 5000}
	for name, coord := range coordDrawers(rng) {
		for _, n := range sizes {
			for trial := 0; trial < 4; trial++ {
				in := randomRun(rng.Intn(1<<20), n, coord)
				want := slices.Clone(in)
				slices.SortFunc(want, byCoordThenID)
				got := slices.Clone(in)
				sortRun(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %d entries: sortRun differs from SortFunc(byCoordThenID)", name, n)
				}
				if n > 0 { // below the cutoff too
					radix := slices.Clone(in)
					radixSort(radix)
					if !slices.Equal(radix, want) {
						t.Fatalf("%s, %d entries: radixSort differs from SortFunc(byCoordThenID)", name, n)
					}
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
			runs := make([]rowRun, 2+rng.Intn(5))
			next, total := 0, 0
			for r := range runs {
				n := 1 + rng.Intn(300)
				runs[r] = randomRun(next, n, coord)
				sortRun(runs[r])
				next += n
				total += n
			}
			want := kWayMergeRuns(runs, total)
			got := mergeRuns(slices.Clone(runs), total)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, trial %d (%d runs): merges differ", name, trial, len(runs))
			}
			if len(got) != cap(got) {
				t.Fatalf("%s: merged run has %d entries in a %d-entry array", name, len(got), cap(got))
			}
		}
	}
}

// BenchmarkSortRun measures the radix sort against slices.SortFunc around
// radixCutoff, on a date-like span (two byte passes) and a key-like one
// (three):
//
//	go test ./internal/semstore/ -run '^$' -bench SortRun -benchmem
func BenchmarkSortRun(b *testing.B) {
	for _, span := range []int64{1 << 16, 1 << 23} {
		for _, n := range []int{16, 32, 64, 128, 512} {
			rng := rand.New(rand.NewSource(1))
			in := randomRun(0, n, func() int64 { return rng.Int63n(span) })
			run := make(rowRun, n)
			for _, k := range []struct {
				name string
				sort func(rowRun)
			}{
				{"sortfunc", func(r rowRun) { slices.SortFunc(r, byCoordThenID) }},
				{"radix", radixSort},
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
