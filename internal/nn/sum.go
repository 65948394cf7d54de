package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
// AppendWire writes the Accum vector's wire bytes: exactness is kept by
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

// Relay blocks. A subtree's sum crosses a relay hop as one accumulator
// block: per parameter, the AppendWire encoding of the Accum holding the
// parameter's exact sum. ParamSum writes and reads that block itself, so
// no hop builds an Accum per parameter. A clean lead is a finite float64,
// which spans at most two limbs, so its encoding is the flag|span byte,
// the origin limb and one or two magnitude limbs, written straight from
// its bits. On the way in, an entry that is one float64 enters the lead
// through TwoSum like any summand.

// leadWireMax is the longest encoding of a clean lead: flag byte, origin
// and two limbs.
const leadWireMax = 1 + 1 + 2*8

// AppendWire appends the sum's relay block to dst and returns the extended
// slice: the bytes Accum.AppendWire writes for an Accum vector holding the
// same sums, parameter by parameter. A clean parameter is encoded from its
// lead; a dirty one first folds its lead into its accumulator, which
// leaves its value unchanged. dst grows only when its capacity cannot take
// the longest block the sum can produce, so a reused buffer makes the relay
// hop allocation-free.
//
//fedlint:allocfree
func (s *ParamSum) AppendWire(dst []byte) []byte {
	n := len(dst)
	if need := n + leadWireMax*len(s.lead) + (MaxAccumWire-leadWireMax)*s.ndirty; cap(dst) < need {
		dst = append(make([]byte, 0, need), dst...)
	}
	buf := dst[:cap(dst)]
	for i, l := range s.lead {
		if !s.dirty[i] {
			n += putLeadWire(buf[n:], l)
			continue
		}
		a := &s.acc[i]
		a.Add(l)
		s.lead[i] = 0
		n += putAccumWire(buf[n:], a)
	}
	return buf[:n]
}

// putLeadWire writes the AppendWire encoding of an Accum holding exactly l,
// a finite float64, at the front of buf and returns its length.
func putLeadWire(buf []byte, l float64) int {
	b := math.Float64bits(l)
	if b<<1 == 0 {
		buf[0] = 0
		return 1
	}
	exp := int(b >> 52 & 0x7ff)
	m := b & (1<<52 - 1)
	if exp != 0 {
		m |= 1 << 52
	} else {
		exp = 1 // subnormals share the E=1 weight 2^-1074 for their LSB
	}
	// Accum.Add's placement: the mantissa's LSB at bit index s, across limbs
	// li and li+1, trimmed to the nonzero ones.
	s := exp - 1075 + accOffset
	li, off := s>>6, uint(s&63)
	lo, hi := m<<off, uint64(0)
	if off != 0 {
		hi = m >> (64 - off)
	}
	if lo == 0 {
		lo, hi, li = hi, 0, li+1
	}
	span := byte(1)
	if hi != 0 {
		span = 2
		binary.LittleEndian.PutUint64(buf[10:], hi)
	}
	buf[0] = byte(b>>63)<<7 | span // accFlagNeg is the sign bit's place
	buf[1] = byte(li)
	binary.LittleEndian.PutUint64(buf[2:], lo)
	return 2 + 8*int(span)
}

// putAccumWire writes a's AppendWire encoding at the front of buf, which
// must have room for it, and returns its length: AppendWire without the
// appends.
func putAccumWire(buf []byte, a *Accum) int {
	m := a.magnitude()
	span := m.top - m.bottom + 1
	flags := byte(span)
	if m.neg {
		flags |= accFlagNeg
	}
	n := 1
	if a.nan != 0 || a.posInf != 0 || a.negInf != 0 {
		flags |= accFlagNonFinite
		binary.LittleEndian.PutUint32(buf[1:], a.nan)
		binary.LittleEndian.PutUint32(buf[5:], a.posInf)
		binary.LittleEndian.PutUint32(buf[9:], a.negInf)
		n += 12
	}
	buf[0] = flags
	if span > 0 {
		buf[n] = byte(m.bottom)
		n++
		for i := m.bottom; i <= m.top; i++ {
			binary.LittleEndian.PutUint64(buf[n:], m.limb(i))
			n += 8
		}
	}
	return n
}

// AddWire merges a relay block into the sum, exactly: a subtree's sum
// entering its parent. block must be one ScanAccumWire accepted for the
// sum's parameter count; anything else panics. An entry whose value is one
// float64 — finite, at most two limbs and 53 significant bits, between
// 2^-1074 and 2^1023 — enters the lead through TwoSum, as Add's summands
// do. Any other entry is decoded into an Accum and merged into the
// parameter's accumulator, which makes the parameter dirty: the same
// integer DecodeAccumInto and AddAccum would hold.
//
//fedlint:allocfree
func (s *ParamSum) AddWire(block []byte) {
	var tmp Accum
	n := 0
	for i := range s.lead {
		e := block[n:]
		if v, used, ok := wireFloat(e); ok {
			n += used
			if t, exact := twoSum(s.lead[i], v); exact {
				s.lead[i] = t
			} else {
				s.spill(i, v)
			}
			continue
		}
		n += decodeAccum(&tmp, e)
		s.mark(i)
		s.acc[i].AddAccum(&tmp)
	}
	if n != len(block) {
		panic("nn: relay block longer than the sum")
	}
}

// wireFloat reads the accumulator encoding at the front of e, from a block
// ScanAccumWire accepted, as one float64 when its value is exactly one:
// the value, the encoding's length and true. Otherwise it returns false
// and the entry is left for decodeAccum. The float64 is built from its
// bits, with no arithmetic to round or fuse.
func wireFloat(e []byte) (float64, int, bool) {
	flags := e[0]
	span := int(flags & accSpanMask)
	switch {
	case flags&accFlagNonFinite != 0 || span > 2:
		return 0, 0, false
	case span == 0:
		return 0, 1, true
	}
	o := int(e[1])
	lo, hi := binary.LittleEndian.Uint64(e[2:]), uint64(0)
	if span == 2 {
		hi = binary.LittleEndian.Uint64(e[10:])
	}
	used := 2 + 8*span
	// The magnitude is hi:lo at limb o; top and bot are the bit indexes of
	// its highest and lowest set bits.
	var top, bot int
	switch {
	case hi != 0:
		top = 64*o + 127 - bits.LeadingZeros64(hi)
	case lo != 0:
		top = 64*o + 63 - bits.LeadingZeros64(lo)
	default:
		return 0, used, true // a zero magnitude, padded or negative
	}
	if lo != 0 {
		bot = 64*o + bits.TrailingZeros64(lo)
	} else {
		bot = 64*o + 64 + bits.TrailingZeros64(hi)
	}
	if top-bot > 52 || bot < accSubLSB || top > accSubLSB+2097 {
		return 0, 0, false
	}
	// g is the bit index of the float64's LSB: 53 bits below top, or the
	// subnormal grid at 2^-1074. Every set bit is at or above it.
	g := max(top-52, accSubLSB)
	var mant uint64
	switch r := g - 64*o; {
	case r >= 64:
		mant = hi >> (r - 64)
	case r > 0:
		mant = lo>>r | hi<<(64-r)
	default:
		mant = lo << -r
	}
	// A normal mant carries the implicit bit 2^52, which adds the 1 of the
	// biased exponent g-accSubLSB+1; a subnormal's (g == accSubLSB) does
	// not, leaving exponent 0.
	b := uint64(g-accSubLSB)<<52 + mant
	return math.Float64frombits(uint64(flags>>7)<<63 | b), used, true
}

// decodeAccum decodes the accumulator encoding at the front of src, from a
// block ScanAccumWire accepted, into a and returns its length:
// DecodeAccumInto without the checks ScanAccumWire has made.
func decodeAccum(a *Accum, src []byte) int {
	flags := src[0]
	span := int(flags & accSpanMask)
	n := 1
	a.Reset()
	if flags&accFlagNonFinite != 0 {
		a.nan = binary.LittleEndian.Uint32(src[1:])
		a.posInf = binary.LittleEndian.Uint32(src[5:])
		a.negInf = binary.LittleEndian.Uint32(src[9:])
		n += 12
	}
	if span == 0 {
		return n
	}
	lo := int(src[n])
	n++
	limbs := a.limb[lo : lo+span]
	for i := range limbs {
		limbs[i] = binary.LittleEndian.Uint64(src[n+8*i:])
	}
	a.lo, a.hi = uint8(lo), uint8(lo+span)
	if flags&accFlagNeg != 0 {
		// DecodeAccumInto's two's complement of the span.
		var c uint64 = 1
		for i := range limbs {
			limbs[i], c = bits.Add64(^limbs[i], 0, c)
		}
		a.neg = c == 0
	}
	return n + 8*span
}

// ScanAccumWire checks that block is exactly count accumulator encodings,
// back to back, without decoding them: the check a relay frame passes
// before any sum is touched. An entry fails with the error DecodeAccumInto
// would return for it, wrapped with the entry's index; bytes left over
// after count entries fail the block too.
func ScanAccumWire(block []byte, count int) error {
	n := 0
	for i := 0; i < count; i++ {
		used, err := accumWireLen(block[n:])
		if err != nil {
			return fmt.Errorf("accumulator %d: %w", i, err)
		}
		n += used
	}
	if len(block) != n {
		return fmt.Errorf("block has %d trailing bytes", len(block)-n)
	}
	return nil
}

// accumWireLen returns the length of the accumulator encoding at the front
// of src, applying DecodeAccumInto's checks in its order with its errors.
func accumWireLen(src []byte) (int, error) {
	if len(src) < 1 {
		return 0, fmt.Errorf("nn: accumulator encoding empty")
	}
	flags := src[0]
	span := int(flags & accSpanMask)
	if span > accLimbs {
		return 0, fmt.Errorf("nn: accumulator span %d exceeds %d limbs", span, accLimbs)
	}
	n := 1
	if flags&accFlagNonFinite != 0 {
		if len(src) < n+12 {
			return 0, fmt.Errorf("nn: accumulator encoding truncated in tallies")
		}
		n += 12
	}
	if span > 0 {
		if len(src) < n+1+8*span {
			return 0, fmt.Errorf("nn: accumulator encoding truncated in limb span")
		}
		if lo := int(src[n]); lo+span > accLimbs {
			return 0, fmt.Errorf("nn: accumulator span [%d,%d) out of range", lo, lo+span)
		}
		n += 1 + 8*span
	}
	return n, nil
}
