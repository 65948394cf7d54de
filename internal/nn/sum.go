package nn

import (
	"fmt"
	"math"
)

// ParamSum is the exact sum of parameter vectors: the per-parameter Accum
// vector of AddParamsAccum, MergeAccum and MeanAccum with a dense float64
// lead in front of it. The summands a federation aggregates are decoded
// float32 values, so within one round their float64 sum is almost always
// exact and the 2176-bit integer behind it buys nothing; the lead takes
// those additions at the cost of one TwoSum, and only a parameter whose sum
// stops being exact pays for its Accum.
//
// Each parameter i holds the exact value lead[i] + acc[i], with acc[i] read
// as zero while the parameter is clean. A summand p enters through TwoSum
// (Knuth): t = l + p rounded, e the error of that rounding. When e is
// ±0 the sum l + p is t exactly and the lead becomes t. Otherwise p goes
// into the parameter's Accum, which is marked dirty (and reset the first
// time), and the lead keeps its value. The one integer test on e's bits
// catches every case the lead cannot hold: an inexact sum leaves e nonzero,
// and NaN, ±Inf and an overflowing lead leave it NaN or infinite. The lead
// therefore only ever holds a finite float64, and never -0 (it starts at +0
// and a rounded sum is -0 only when both addends are), so it reads back as
// the Accum holding the same value would.
//
// The held integer is the one the plain Accum vector holds for the same
// summands, in any order and grouping, so Mean returns MeanAccum's bits and
// Fold's accumulators encode to the same wire bytes: exactness is kept by
// construction, not by a tolerance. TwoSum has no multiply, so no port can
// fuse it into an FMA. A ParamSum is not safe for concurrent use.
type ParamSum struct {
	lead   []float64
	acc    []Accum
	dirty  []bool
	ndirty int // number of dirty parameters; 0 skips every Accum path
}

// NewParamSum returns an empty sum over n parameters.
func NewParamSum(n int) *ParamSum {
	return &ParamSum{lead: make([]float64, n), acc: make([]Accum, n), dirty: make([]bool, n)}
}

// NumParams returns the number of parameters the sum is over.
func (s *ParamSum) NumParams() int { return len(s.lead) }

// Reset empties the sum. Dirty accumulators are reset when next marked, so
// a clean sum costs one pass over the leads.
//
//fedlint:allocfree
func (s *ParamSum) Reset() {
	clear(s.lead)
	if s.ndirty > 0 {
		clear(s.dirty)
		s.ndirty = 0
	}
}

// mark makes parameter i dirty, emptying its stale accumulator first.
func (s *ParamSum) mark(i int) {
	if !s.dirty[i] {
		s.dirty[i] = true
		s.ndirty++
		s.acc[i].Reset()
	}
}

// twoSum returns l + p rounded and whether that sum is exact, read off
// TwoSum's error term e as described on ParamSum.
func twoSum(l, p float64) (float64, bool) {
	t := l + p
	bp := t - l
	e := (l - (t - bp)) + (p - bp)
	return t, math.Float64bits(e)<<1 == 0
}

// spill adds p to parameter i's accumulator: the rare path, kept out of
// line so the lead's loops stay small.
func (s *ParamSum) spill(i int, p float64) {
	s.mark(i)
	s.acc[i].Add(p)
}

// Add adds one parameter vector to the sum, exactly: one client's update
// entering the aggregate.
//
//fedlint:allocfree
func (s *ParamSum) Add(params []float64) {
	if len(params) != len(s.lead) {
		panic(fmt.Sprintf("nn: adding %d params to a sum of %d", len(params), len(s.lead)))
	}
	for i, p := range params {
		if t, ok := twoSum(s.lead[i], p); ok {
			s.lead[i] = t
		} else {
			s.spill(i, p)
		}
	}
}

// AddSum merges another sum into this one, exactly: a shard or subtree's
// partial sum entering its parent. src may be s itself.
//
//fedlint:allocfree
func (s *ParamSum) AddSum(src *ParamSum) {
	if len(src.lead) != len(s.lead) {
		panic(fmt.Sprintf("nn: merging a sum of %d params into %d", len(src.lead), len(s.lead)))
	}
	// Accumulators first: src's leads may spill into s's accumulators, and
	// when src is s those must not be merged a second time.
	if src.ndirty > 0 {
		for i, d := range src.dirty {
			if d {
				s.mark(i)
				s.acc[i].AddAccum(&src.acc[i])
			}
		}
	}
	for i, l := range src.lead {
		if t, ok := twoSum(s.lead[i], l); ok {
			s.lead[i] = t
		} else {
			s.spill(i, l)
		}
	}
}

// AddAccums merges one accumulator per parameter into the sum, exactly: a
// relay frame's subtree sums entering the aggregate. The merged parameters
// are dirty from then on.
//
//fedlint:allocfree
func (s *ParamSum) AddAccums(src []Accum) {
	if len(src) != len(s.lead) {
		panic(fmt.Sprintf("nn: merging %d accumulators into a sum of %d", len(src), len(s.lead)))
	}
	for i := range src {
		s.mark(i)
		s.acc[i].AddAccum(&src[i])
	}
}

// Mean overwrites dst with the n-way mean: each parameter's exact sum,
// correctly rounded, times 1/n — MeanAccum's arithmetic and bits. A clean
// parameter's lead is its rounded sum already; a dirty one folds its lead
// into its accumulator and rounds that.
//
//fedlint:allocfree
func (s *ParamSum) Mean(dst []float64, n int) {
	if len(dst) != len(s.lead) {
		panic(fmt.Sprintf("nn: mean of a sum of %d params into %d", len(s.lead), len(dst)))
	}
	if n <= 0 {
		panic("nn: mean over a non-positive count")
	}
	inv := 1 / float64(n)
	if s.ndirty == 0 {
		for i, l := range s.lead {
			dst[i] = l * inv
		}
		return
	}
	for i, l := range s.lead {
		if !s.dirty[i] {
			dst[i] = l * inv
			continue
		}
		a := &s.acc[i]
		a.Add(l)
		s.lead[i] = 0
		dst[i] = a.Round() * inv
	}
}

// Fold moves every lead into its accumulator and returns the accumulators,
// which then hold the whole sum: the relay frame a subtree sends its parent,
// encoded with AppendWire. The returned slice is the sum's own storage,
// valid until the next Reset or addition.
//
//fedlint:allocfree
func (s *ParamSum) Fold() []Accum {
	for i, l := range s.lead {
		if !s.dirty[i] {
			s.acc[i].Reset()
			s.dirty[i] = true
		}
		s.acc[i].Add(l)
		s.lead[i] = 0
	}
	s.ndirty = len(s.lead)
	return s.acc
}
