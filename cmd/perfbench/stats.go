package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the tail is a handful of outliers, not a
// percentile.
const minBeyond = 10

// percentileLadder is the fallback order when a requested percentile
// has too few samples beyond it.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// level is the highest percentile of the ladder, not above want, that n
// samples support with at least minBeyond samples beyond it; 50 (the
// median) when none does.
func level(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p <= want && n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// at is the nearest-rank p-th percentile of the samples; for p = 50 the
// median.
func at(samples []float64, p float64) float64 {
	if p == 50 {
		return median(samples)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// median of the samples; 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
