package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency may be reported
// at. A run reports the highest one that still has at least
// minBeyond samples above it, so the tail is never an artefact of one
// or two slow samples.
var tailLadder = []float64{50, 90, 99}

const minBeyond = 10

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples strictly beyond its nearest-rank position, or
// 100 (the maximum) when no ladder entry qualifies.
func tailPercentile(n int) float64 {
	best := 100.0
	for _, p := range tailLadder {
		if n-nearestRank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place); 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(len(xs), p)-1]
}

// median returns the conventional median (mean of the middle two for
// an even count) of a copy of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
