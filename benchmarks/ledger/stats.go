package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of xs: the
// smallest value with at least p of the samples at or below it, so
// percentile(xs, 0.9) leaves at most a tenth of the samples beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is the
// rule the acceptance driver applies to run-to-run spreads. Fewer than two
// samples have no spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 { // i-th of 4 cut points over n+1 gaps
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// positionMedians folds per-pass latency vectors (all the same length, one
// entry per request position) into one latency per position: the median over
// passes. Replaying the same sequence makes a position's cost a property of
// the program, and the median strips the pass a GC cycle or a scheduler
// hiccup happened to land on.
func positionMedians(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for i := range out {
		for p := range passes {
			col[p] = passes[p][i]
		}
		out[i] = median(col)
	}
	return out
}
