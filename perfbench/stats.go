package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate percentiles a latency report may
// quote beyond the median, in ascending order.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// minTail is the number of samples that must lie beyond a quoted
// percentile for it to mean anything.
const minTail = 10

// beyond counts the samples of n that lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// with a tolerance so that float error in p/100*n (0.999*10000 is
// 9990.000000000002) does not push the rank up by one.
func nearestRank(n int, p float64) int {
	return max(int(math.Ceil(p/100*float64(n)-1e-9)), 1)
}

// highestTail returns the highest candidate percentile with at least
// minTail of n samples beyond it, and false when even the median has
// fewer.
func highestTail(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minTail {
			best, ok = p, true
		}
	}
	return best, ok
}

// samplesFor is the fewest samples that put minTail samples beyond the
// p-th percentile (20 for the median, 40 for p75).
func samplesFor(p float64) int {
	n := 1
	for beyond(n, p) < minTail {
		n++
	}
	return n
}

// percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// median is the midpoint of xs (the mean of the two middle values for
// an even count; 0 for an empty slice).
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

// ratio divides, returning 0 when the denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
