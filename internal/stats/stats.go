// Package stats provides the small set of descriptive statistics used by the
// experiment harness: means, standard deviations, extrema, running
// aggregates, exponential smoothing, and percentage deltas. Everything
// operates on float64 slices and is allocation-conscious so that it can be
// called inside tight simulation loops.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs, or 0 when fewer than
// two samples are present.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Min returns the minimum of xs. It panics on an empty slice because a
// minimum of nothing indicates a harness bug, not a recoverable condition.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice or an
// out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if len(cp) == 1 {
		return cp[0]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// PercentDelta returns the relative change from base to value in percent.
// Positive means value exceeds base. It returns 0 when base is 0 to keep
// report tables well-defined.
func PercentDelta(value, base float64) float64 {
	if base == 0 { //fedlint:ignore floateq exact zero guards the division below
		return 0
	}
	return (value - base) / base * 100
}

// DefaultTol is the combined absolute/relative tolerance of ApproxEqual:
// loose enough to absorb the float32 round trip of the federated wire
// format (~1e-7 relative) plus accumulation error, tight enough to reject
// any genuinely different reward or frequency reading.
const DefaultTol = 1e-6

// ApproxEqual reports whether a and b agree within DefaultTol. It is the
// sanctioned replacement for == between floats (enforced by the floateq
// analyzer): exact float equality is representation-dependent and breaks
// across compilers, FMA contraction and the wire format's float32 round
// trip.
func ApproxEqual(a, b float64) bool { return ApproxEqualTol(a, b, DefaultTol) }

// ApproxEqualTol reports whether |a-b| <= tol·max(1, |a|, |b|): absolute
// tolerance near zero, relative tolerance for large magnitudes. NaN equals
// nothing; infinities are equal only to themselves.
func ApproxEqualTol(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //fedlint:ignore floateq exact hit short-circuit also handles equal infinities
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // an infinity only matched the exact check above
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Running accumulates observations and reports their mean, standard
// deviation, and extrema without retaining the samples. The zero value is
// ready to use.
type Running struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds x into the running aggregate using Welford's algorithm.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations folded in so far.
func (r *Running) N() int { return r.n }

// Mean returns the running mean, or 0 before any observation.
func (r *Running) Mean() float64 { return r.mean }

// Std returns the running population standard deviation, or 0 with fewer
// than two observations.
func (r *Running) Std() float64 {
	if r.n < 2 {
		return 0
	}
	return math.Sqrt(r.m2 / float64(r.n))
}

// Min returns the smallest observation, or 0 before any observation.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 before any observation.
func (r *Running) Max() float64 { return r.max }

// String renders the aggregate as "mean ± std [min, max] (n=N)".
func (r *Running) String() string {
	return fmt.Sprintf("%.4f ± %.4f [%.4f, %.4f] (n=%d)", r.Mean(), r.Std(), r.Min(), r.Max(), r.N())
}
