package main

import (
	"math"
	"slices"
)

// quartiles returns the first quartile, median and third quartile of
// values, by the method of Python's statistics.quantiles(values, n=4) —
// the one the acceptance criterion is stated in — so a spread computed
// here and one computed from the same numbers elsewhere agree to the last
// digit. One value is its own quartiles; values is not modified.
func quartiles(values []float64) (q1, median, q3 float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return values[0], values[0], values[0]
	}
	s := slices.Clone(values)
	slices.Sort(s)
	cut := func(i int) float64 {
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
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest sample with at least p % of the samples
// at or below it.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9)) // 99.9 % of 1000 is 999, not 999.0000000000001
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1])
}

// twoPoint fits y = intercept + slope·x through two measurements: the
// fixed and per-device cost of a round from its latency at two fleet
// sizes.
func twoPoint(x1, y1, x2, y2 float64) (intercept, slope float64) {
	slope = (y2 - y1) / (x2 - x1)
	return y1 - slope*x1, slope
}
