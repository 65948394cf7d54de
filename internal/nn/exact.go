package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Exact parameter accumulation. Floating-point addition is not associative,
// so the value of a naive Σ θ_n depends on the order — and, worse, on the
// grouping — of the additions. A flat federation sums its clients in one
// stable order, but a hierarchical one sums each subtree first and then sums
// the subtree results: a different grouping, hence (under naive float64
// arithmetic) a different last-ulp result every time the topology changes.
//
// Accum removes the order dependence instead of pinning it: it is a
// fixed-point superaccumulator (after Kulisch) wide enough to hold the sum
// of billions of float64 values with NO rounding at all. Adding a float64 is
// exact, merging two accumulators is exact, and therefore the accumulated
// value — and its correctly-rounded float64 reading — is a function of the
// multiset of summands only. Any tree of partial sums over any topology
// produces bit-identical results to the flat sum, which is the foundation of
// the hierarchical federation's bit-identity guarantee (fed.RunTree,
// fed.Aggregator) and of AverageParams below.
//
// Layout: 34 little-endian uint64 limbs interpreted as one 2176-bit two's
// complement fixed-point integer in units of 2^-1088. Bit index i carries
// weight 2^(i-1088): the lowest finite float64 bit (2^-1074, a subnormal's
// LSB) sits at index 14, the highest (2^1023) at index 2111, leaving 64 bits
// of carry headroom — ~2^63 max-magnitude summands — before the sign bit.
// Non-finite summands cannot be represented in fixed point; they are tallied
// separately and resolved by Round with IEEE semantics (any NaN, or both
// infinity signs, poisons the sum to NaN).
//
// Only a live span of limbs [lo, hi) is stored; the rest of the integer is
// implied. Every limb below lo is 0 and every limb at or above hi is the
// sign fill, 0 or ^0; array limbs outside the span are stale and never read.
// A parameter of magnitude ~1 lives in 2–3 limbs, so each operation costs
// the width of the data, not of the window: Reset is O(1), Add touches the
// span only, a carry or borrow that reaches hi resolves against the fill in
// O(1) (it flips the fill or extends the span by one limb), AddAccum walks
// the union of two spans, and Round and AppendWire read the magnitude limb
// by limb. The integer is the one a full-width accumulator would hold, so
// every reading and every wire byte is too.
//
// The federation's vector sums — the TCP server's, the aggregators' and
// the in-process tree's — do not use an Accum vector bare: they go through
// ParamSum (sum.go), which keeps a float64 lead in front of each Accum and
// touches the Accum only when the lead's sum would be inexact. ParamSum
// also writes and reads the relay frame's block of AppendWire encodings
// itself, so a relay hop builds no Accum for a parameter whose sum is one
// float64; the bytes are this file's encoding either way.

const (
	// accLimbs is the number of 64-bit limbs in the fixed-point window.
	accLimbs = 34
	// accOffset is the bias between bit index and binary weight: bit i
	// weighs 2^(i-accOffset).
	accOffset = 1088
	// accSubLSB is the bit index of 2^-1074, the smallest nonzero float64
	// magnitude. Every finite summand's mantissa lands at or above it, so
	// bits below accSubLSB are always zero and subnormal readings are exact.
	accSubLSB = 14
)

// MaxAccumWire is the largest wire encoding of one Accum in bytes: the flag
// byte, the non-finite tallies, the span origin and a full-width limb span.
// fed uses it to bound hostile relay-frame allocations.
const MaxAccumWire = 1 + 12 + 1 + 8*accLimbs

// Accum is an exact accumulator for float64 sums: order- and
// grouping-invariant by construction. The zero value is an empty sum. Accum
// is a value type — assignment copies the sum — but the methods take
// pointers; do not copy an Accum concurrently with writes. Only limbs in
// the live span [lo, hi) are meaningful (see Layout), so two Accums holding
// the same sum need not compare equal with ==; compare their AppendWire
// encodings, which are canonical.
type Accum struct {
	limb [accLimbs]uint64
	// Non-finite tallies, merged additively so they too are
	// order-invariant. uint32 bounds fleets at 4 G summands of each kind,
	// the same order as the fixed-point headroom.
	nan, posInf, negInf uint32
	// lo and hi bound the live span; neg selects the fill of the limbs at
	// and above hi (^0 when set, else 0). With hi == accLimbs there is no
	// fill limb, neg is unused and the sign is the top limb's top bit.
	lo, hi uint8
	neg    bool
}

// Reset empties the accumulator.
func (a *Accum) Reset() {
	a.lo, a.hi, a.neg = 0, 0, false
	a.nan, a.posInf, a.negInf = 0, 0, 0
}

// fillSign is the fill as a signed limb value: -1 for ^0, else 0.
func (a *Accum) fillSign() int {
	if a.neg {
		return -1
	}
	return 0
}

// at returns limb i of the integer, inside the span or implied by it.
func (a *Accum) at(i int) uint64 {
	switch {
	case i < int(a.lo):
		return 0
	case i < int(a.hi):
		return a.limb[i]
	case a.neg:
		return ^uint64(0)
	}
	return 0
}

// negative reports whether the integer is negative.
func (a *Accum) negative() bool {
	if a.hi == accLimbs {
		return a.limb[accLimbs-1]>>63 != 0
	}
	return a.neg
}

// widen grows the live span to cover limbs [l, h), writing the new limbs
// from the invariant: zeros below the span, the fill above it.
func (a *Accum) widen(l, h int) {
	lo, hi := int(a.lo), int(a.hi)
	if lo == hi && !a.neg {
		lo, hi = l, l // an empty non-negative span is zero everywhere: anchor it at l
	}
	for ; lo > l; lo-- {
		a.limb[lo-1] = 0
	}
	for f := uint64(a.fillSign()); hi < h; hi++ {
		a.limb[hi] = f
	}
	a.lo, a.hi = uint8(lo), uint8(hi)
}

// spill resolves what left the top of the span: u, in [-2, 1], is the
// signed value the limbs at and above hi now hold — the old fill plus the
// carries or borrows that reached it. 0 and -1 are fills; 1 and -2 take one
// more live limb. Past the top limb the integer wraps mod 2^2176, which is
// the two's complement behaviour negative partial sums rely on.
func (a *Accum) spill(u int) {
	if a.hi == accLimbs {
		return
	}
	if u < -1 || u > 0 {
		a.limb[a.hi] = uint64(u)
		a.hi++
	}
	a.neg = u < 0
}

// Add adds v to the sum, exactly.
func (a *Accum) Add(v float64) {
	b := math.Float64bits(v)
	exp := int(b >> 52 & 0x7ff)
	frac := b & (1<<52 - 1)
	if exp == 0x7ff {
		switch {
		case frac != 0:
			a.nan++
		case b>>63 != 0:
			a.negInf++
		default:
			a.posInf++
		}
		return
	}
	m := frac
	e := exp
	if exp != 0 {
		m |= 1 << 52
	} else {
		e = 1 // subnormals share the E=1 weight 2^-1074 for their LSB
	}
	if m == 0 {
		return // ±0 contributes nothing (the sum's sign of zero is +0)
	}
	// The mantissa's LSB has weight 2^(e-1075); place it at bit index s.
	s := e - 1075 + accOffset
	li, off := s>>6, uint(s&63)
	lo := m << off
	var hi uint64
	if off != 0 {
		hi = m >> (64 - off)
	}
	if li < int(a.lo) || li+2 > int(a.hi) {
		a.widen(li, li+2)
	}
	// The span now covers limbs li and li+1. Only a carry or borrow out of
	// them, which is rare, walks further.
	var c uint64
	if b>>63 == 0 {
		a.limb[li], c = bits.Add64(a.limb[li], lo, 0)
		a.limb[li+1], c = bits.Add64(a.limb[li+1], hi, c)
		if c != 0 {
			a.carry(li + 2)
		}
	} else {
		a.limb[li], c = bits.Sub64(a.limb[li], lo, 0)
		a.limb[li+1], c = bits.Sub64(a.limb[li+1], hi, c)
		if c != 0 {
			a.borrow(li + 2)
		}
	}
}

// carry adds 1 at limb index i, rippling up through the span into the fill.
func (a *Accum) carry(i int) {
	for h := int(a.hi); i < h; i++ {
		a.limb[i]++
		if a.limb[i] != 0 {
			return
		}
	}
	a.spill(a.fillSign() + 1)
}

// borrow subtracts 1 at limb index i, rippling up through the span into the
// fill.
func (a *Accum) borrow(i int) {
	for h := int(a.hi); i < h; i++ {
		a.limb[i]--
		if a.limb[i] != ^uint64(0) {
			return
		}
	}
	a.spill(a.fillSign() - 1)
}

// AddAccum merges another accumulator into this one, exactly: afterwards a
// holds the sum of both multisets. This is the tree-aggregation step — a
// parent absorbing a subtree's partial sum. b may be a itself.
func (a *Accum) AddAccum(b *Accum) {
	a.nan += b.nan
	a.posInf += b.posInf
	a.negInf += b.negInf
	bl, bh, bneg := int(b.lo), int(b.hi), b.neg
	switch {
	case bl == bh && !bneg:
		return // b's integer is zero
	case a.lo == a.hi && !a.neg:
		copy(a.limb[bl:bh], b.limb[bl:bh])
		a.lo, a.hi, a.neg = b.lo, b.hi, b.neg
		return
	}
	a.widen(min(int(a.lo), bl), max(int(a.hi), bh))
	// Below bl b is zero, so the carry starts at bl; above bh it is b's fill.
	var c uint64
	i := bl
	for ; i < bh; i++ {
		a.limb[i], c = bits.Add64(a.limb[i], b.limb[i], c)
	}
	bFill := b.fillSign()
	for h := int(a.hi); i < h; i++ {
		a.limb[i], c = bits.Add64(a.limb[i], uint64(bFill), c)
	}
	a.spill(a.fillSign() + bFill + int(c))
}

// magnitude is a read-only view of |a|, limb by limb, for Round and
// AppendWire. A negative integer's magnitude limb i is 0 below the lowest
// nonzero limb (bottom), -limb at bottom and ^limb above it.
type magnitude struct {
	a           *Accum
	neg         bool
	bottom, top int // lowest and highest nonzero magnitude limbs; top is -1 for zero
}

func (a *Accum) magnitude() magnitude {
	m := magnitude{a: a, neg: a.negative(), top: -1}
	lo, hi := int(a.lo), int(a.hi)
	b := lo
	for b < hi && a.limb[b] == 0 {
		b++
	}
	if !m.neg {
		if b < hi {
			t := hi - 1
			for a.limb[t] == 0 {
				t--
			}
			m.bottom, m.top = b, t
		}
		return m
	}
	// A negative integer is nonzero: its lowest nonzero limb is in the span
	// or, if the span is all zero, the first fill limb (b == hi). Above
	// bottom the magnitude is ^limb, zero wherever the limb is ^0.
	t := hi - 1
	for t > b && a.limb[t] == ^uint64(0) {
		t--
	}
	m.bottom, m.top = b, max(t, b)
	return m
}

// limb returns magnitude limb i.
func (m *magnitude) limb(i int) uint64 {
	if i < m.bottom || i > m.top {
		return 0
	}
	v := m.a.at(i)
	switch {
	case !m.neg:
		return v
	case i == m.bottom:
		return -v
	}
	return ^v
}

// window returns the 64 magnitude bits starting at bit index from
// (little-endian across limbs).
func (m *magnitude) window(from int) uint64 {
	li, off := from>>6, uint(from&63)
	w := m.limb(li) >> off
	if off != 0 {
		w |= m.limb(li+1) << (64 - off)
	}
	return w
}

// anyBelow reports whether any magnitude bit with index < n is set — the
// sticky bit of the rounding step. Negation keeps the lowest set bit in
// place, so it is the lowest set bit of limb bottom.
func (m *magnitude) anyBelow(n int) bool {
	return m.top >= 0 && 64*m.bottom+bits.TrailingZeros64(m.limb(m.bottom)) < n
}

// Round returns the sum as a float64, correctly rounded to nearest (ties to
// even) — the unique reading of the exact value, independent of how the sum
// was ordered or grouped. Non-finite tallies resolve first: any NaN summand,
// or infinities of both signs, yields NaN; otherwise a lone infinity sign
// wins. A sum whose magnitude exceeds the float64 range rounds to ±Inf and a
// tiny one to a subnormal (exactly — subnormal grids are coarser than the
// accumulator's, never finer).
func (a *Accum) Round() float64 {
	if a.nan > 0 || (a.posInf > 0 && a.negInf > 0) {
		return math.NaN()
	}
	if a.posInf > 0 {
		return math.Inf(1)
	}
	if a.negInf > 0 {
		return math.Inf(-1)
	}
	m := a.magnitude()
	if m.top < 0 {
		return 0
	}
	msb := 64*m.top + bits.Len64(m.limb(m.top)) - 1 // highest set bit index
	lsb := msb - 52                                 // 53-bit normal mantissa window
	if msb < accSubLSB+52 {
		lsb = accSubLSB // subnormal result: fixed grid at 2^-1074
	}
	mant := m.window(lsb)
	if w := msb - lsb + 1; w < 64 {
		mant &= 1<<uint(w) - 1
	}
	if g := m.window(lsb-1) & 1; g == 1 && (mant&1 == 1 || m.anyBelow(lsb-1)) {
		// Round up; a mantissa overflow to 2^53 stays exactly representable,
		// so no renormalisation is needed.
		mant++
	}
	v := math.Ldexp(float64(mant), lsb-accOffset)
	if m.neg {
		v = -v
	}
	return v
}

// Wire encoding flag bits (see AppendWire).
const (
	accFlagNeg       = 1 << 7 // fixed-point value is negative (magnitude follows)
	accFlagNonFinite = 1 << 6 // 12 bytes of non-finite tallies follow the flag
	accSpanMask      = 0x3f   // low bits: number of magnitude limbs encoded
)

// AppendWire appends the accumulator's wire encoding to dst and returns the
// extended slice. The encoding is canonical and compact: one flag byte
// (sign, non-finite marker, magnitude span length), optional non-finite
// tallies, then the trimmed little-endian limb span of the magnitude with
// its origin index. Parameters of similar magnitude span 2–3 limbs, so a
// typical encoded sum costs ~20–30 bytes — the price of shipping a subtree's
// sum with nothing rounded away. At most MaxAccumWire bytes are appended.
func (a *Accum) AppendWire(dst []byte) []byte {
	m := a.magnitude()
	var flags byte
	if m.neg {
		flags |= accFlagNeg
	}
	span := m.top - m.bottom + 1
	flags |= byte(span)
	if a.nan != 0 || a.posInf != 0 || a.negInf != 0 {
		flags |= accFlagNonFinite
	}
	dst = append(dst, flags)
	if flags&accFlagNonFinite != 0 {
		dst = binary.LittleEndian.AppendUint32(dst, a.nan)
		dst = binary.LittleEndian.AppendUint32(dst, a.posInf)
		dst = binary.LittleEndian.AppendUint32(dst, a.negInf)
	}
	if span > 0 {
		dst = append(dst, byte(m.bottom))
		for i := m.bottom; i <= m.top; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, m.limb(i))
		}
	}
	return dst
}

// DecodeAccumInto decodes one AppendWire encoding from the front of src into
// a (overwriting it) and returns the number of bytes consumed. Any
// structurally complete encoding decodes — the decoder is total over
// corrupted spans so a hostile peer can force an error, never a panic or an
// oversized allocation.
func DecodeAccumInto(a *Accum, src []byte) (int, error) {
	if len(src) < 1 {
		return 0, fmt.Errorf("nn: accumulator encoding empty")
	}
	flags := src[0]
	span := int(flags & accSpanMask)
	if span > accLimbs {
		return 0, fmt.Errorf("nn: accumulator span %d exceeds %d limbs", span, accLimbs)
	}
	n := 1
	a.Reset()
	if flags&accFlagNonFinite != 0 {
		if len(src) < n+12 {
			return 0, fmt.Errorf("nn: accumulator encoding truncated in tallies")
		}
		a.nan = binary.LittleEndian.Uint32(src[n:])
		a.posInf = binary.LittleEndian.Uint32(src[n+4:])
		a.negInf = binary.LittleEndian.Uint32(src[n+8:])
		n += 12
	}
	if span > 0 {
		if len(src) < n+1+8*span {
			return 0, fmt.Errorf("nn: accumulator encoding truncated in limb span")
		}
		lo := int(src[n])
		n++
		if lo+span > accLimbs {
			return 0, fmt.Errorf("nn: accumulator span [%d,%d) out of range", lo, lo+span)
		}
		limbs := a.limb[lo : lo+span]
		for i := range limbs {
			limbs[i] = binary.LittleEndian.Uint64(src[n+8*i:])
		}
		n += 8 * span
		a.lo, a.hi = uint8(lo), uint8(lo+span)
		if flags&accFlagNeg != 0 {
			// Two's complement of the span; the carry-in is 1 at lo because
			// the limbs below are zero. It survives the span only when the
			// magnitude is zero (a padded encoding), leaving fill 0.
			var c uint64 = 1
			for i := range limbs {
				limbs[i], c = bits.Add64(^limbs[i], 0, c)
			}
			a.neg = c == 0
		}
	}
	return n, nil
}

// AddParamsAccum adds each of params into the matching accumulator of acc,
// exactly: one client's parameter vector entering the sum. With MergeAccum
// and MeanAccum it is the plain vector path ParamSum is held to by
// FuzzParamSumMatchesAccum; the federation itself sums through ParamSum.
func AddParamsAccum(acc []Accum, params []float64) {
	if len(acc) != len(params) {
		panic(fmt.Sprintf("nn: %d accumulators for %d params", len(acc), len(params)))
	}
	for i, p := range params {
		acc[i].Add(p)
	}
}

// MergeAccum merges each accumulator of src into the matching one of dst,
// exactly — a parent node absorbing a subtree's per-parameter sums.
func MergeAccum(dst, src []Accum) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: merging %d accumulators into %d", len(src), len(dst)))
	}
	for i := range dst {
		dst[i].AddAccum(&src[i])
	}
}

// MeanAccum overwrites dst with the n-way mean read from the accumulators:
// the correctly-rounded exact sum times 1/n — exactly the arithmetic of
// AverageParams, so a tree of exact partial sums reproduces the flat mean
// bit-for-bit.
func MeanAccum(dst []float64, acc []Accum, n int) {
	if len(dst) != len(acc) {
		panic(fmt.Sprintf("nn: %d accumulators for %d params", len(acc), len(dst)))
	}
	if n <= 0 {
		panic("nn: mean over a non-positive count")
	}
	inv := 1 / float64(n)
	for i := range dst {
		dst[i] = acc[i].Round() * inv
	}
}
