package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"
)

// bigSum computes the exact sum of vs with math/big at a precision wide
// enough (the accumulator window itself is 2176 bits) that no rounding
// occurs, then rounds once to float64 nearest-even — the reference reading
// Accum.Round must reproduce.
func bigSum(vs []float64) float64 {
	sum := new(big.Float).SetPrec(2400)
	t := new(big.Float).SetPrec(2400)
	for _, v := range vs {
		t.SetFloat64(v)
		sum.Add(sum, t)
	}
	f, _ := sum.Float64()
	return f
}

// randFinite draws a float64 from the full bit-pattern space, redrawing
// non-finite values: every exponent — subnormals included — and both signs
// are reachable, which is a far harsher distribution than training ever
// produces.
func randFinite(rng *rand.Rand) float64 {
	for {
		v := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

func TestAccumMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		vs := make([]float64, n)
		for i := range vs {
			switch rng.Intn(4) {
			case 0:
				// Same-magnitude cancellation pressure.
				vs[i] = float64(rng.Intn(2000)-1000) * math.Ldexp(1, rng.Intn(40)-20)
			case 1:
				// Subnormal and near-subnormal values.
				vs[i] = math.Float64frombits(uint64(rng.Int63n(1 << 54)))
				if rng.Intn(2) == 0 {
					vs[i] = -vs[i]
				}
			default:
				vs[i] = randFinite(rng)
			}
		}
		var a Accum
		for _, v := range vs {
			a.Add(v)
		}
		got, want := a.Round(), bigSum(vs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Accum sum %x (%v), big.Float sum %x (%v), inputs %v",
				trial, math.Float64bits(got), got, math.Float64bits(want), want, vs)
		}
	}
}

func TestAccumSingleValueIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []float64{0, math.Copysign(0, -1), 1, -1, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1.fffffffffffffp-1023}
	for i := 0; i < 2000; i++ {
		cases = append(cases, randFinite(rng))
	}
	for _, v := range cases {
		var a Accum
		a.Add(v)
		got := a.Round()
		// -0 reads back as +0: an empty/cancelled sum has no sign.
		want := v + 0
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Add(%x)=%v rounds to %x (%v)", math.Float64bits(v), v, math.Float64bits(got), got)
		}
	}
}

// TestAccumGroupingInvariance is the property the hierarchical federation
// stands on: any partition of the summands into subtrees, each summed into
// its own accumulator and then merged, reads back identically to the flat
// accumulation — and identically to exact big.Float arithmetic.
func TestAccumGroupingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = randFinite(rng)
		}
		var flat Accum
		for _, v := range vs {
			flat.Add(v)
		}
		// Random partition into groups, each group summed separately, merged
		// in shuffled order.
		groups := 1 + rng.Intn(6)
		parts := make([]Accum, groups)
		for _, v := range vs {
			parts[rng.Intn(groups)].Add(v)
		}
		order := rng.Perm(groups)
		var tree Accum
		for _, g := range order {
			tree.AddAccum(&parts[g])
		}
		if got, want := tree.Round(), flat.Round(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: grouped sum %v != flat sum %v", trial, got, want)
		}
		if got, want := tree.Round(), bigSum(vs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: grouped sum %v != big.Float sum %v", trial, got, want)
		}
	}
}

func TestAccumOverflowAndNonFinite(t *testing.T) {
	var a Accum
	for i := 0; i < 4; i++ {
		a.Add(math.MaxFloat64)
	}
	if got := a.Round(); !math.IsInf(got, 1) {
		t.Fatalf("4×MaxFloat64 rounds to %v, want +Inf", got)
	}
	a.Add(-math.MaxFloat64)
	a.Add(-math.MaxFloat64)
	a.Add(-math.MaxFloat64)
	if got := a.Round(); got != 2*0x1.fffffffffffffp+1022 {
		// 4·M − 3·M = M exactly... but M is MaxFloat64 itself; check via big.
		want := bigSum([]float64{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64,
			-math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64})
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("overflow cancellation reads %v, want %v", got, want)
		}
	}

	cases := []struct {
		name string
		vs   []float64
		want float64
	}{
		{"nan", []float64{1, math.NaN(), 2}, math.NaN()},
		{"posinf", []float64{1, math.Inf(1)}, math.Inf(1)},
		{"neginf", []float64{math.Inf(-1), 5}, math.Inf(-1)},
		{"bothinf", []float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
	}
	for _, c := range cases {
		var b Accum
		for _, v := range c.vs {
			b.Add(v)
		}
		got := b.Round()
		if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(c.want) && got != c.want) {
			t.Fatalf("%s: Round()=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestAccumWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		var a Accum
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 0:
				a.Add(math.NaN())
			case 1:
				a.Add(math.Inf(1 - 2*rng.Intn(2)))
			default:
				a.Add(randFinite(rng))
			}
		}
		enc := a.AppendWire(nil)
		if len(enc) > MaxAccumWire {
			t.Fatalf("trial %d: encoding is %d bytes, max %d", trial, len(enc), MaxAccumWire)
		}
		var b Accum
		b.Add(12345) // must be overwritten
		got, err := DecodeAccumInto(&b, enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if got != len(enc) {
			t.Fatalf("trial %d: decoded %d of %d bytes", trial, got, len(enc))
		}
		if re := b.AppendWire(nil); !bytes.Equal(re, enc) {
			t.Fatalf("trial %d: wire round-trip changed the accumulator:\n%x\n%x", trial, enc, re)
		}
		// Trailing bytes must be left unconsumed, not absorbed.
		got, err = DecodeAccumInto(&b, append(enc, 0xee, 0xff))
		if err != nil || got != len(enc) {
			t.Fatalf("trial %d: decode with trailing bytes consumed %d (%v)", trial, got, err)
		}
	}
}

func TestDecodeAccumIntoRejectsCorrupt(t *testing.T) {
	var a Accum
	a.Add(1.5)
	a.Add(math.NaN())
	enc := a.AppendWire(nil)
	var b Accum
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeAccumInto(&b, enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
	// Span length exceeding the window.
	if _, err := DecodeAccumInto(&b, []byte{35}); err == nil {
		t.Fatal("span 35 accepted")
	}
	// Origin pushing the span past the top limb.
	bad := []byte{2, 33, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}
	if _, err := DecodeAccumInto(&b, bad); err == nil {
		t.Fatal("out-of-range span origin accepted")
	}
}

func TestAccumHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 17
	vecs := make([][]float64, 9)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = randFinite(rng)
		}
	}
	// Flat reference through AverageParams.
	want := make([]float64, dim)
	AverageParams(want, vecs...)

	// Tree: two uneven subtrees, each an accumulator vector, merged.
	left := make([]Accum, dim)
	right := make([]Accum, dim)
	for i, v := range vecs {
		if i < 3 {
			AddParamsAccum(left, v)
		} else {
			AddParamsAccum(right, v)
		}
	}
	MergeAccum(left, right)
	got := make([]float64, dim)
	MeanAccum(got, left, len(vecs))
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("param %d: tree mean %v != flat mean %v", j, got[j], want[j])
		}
	}

}

// TestAccumSize: the live span's bounds and fill sit in what was padding,
// so a relay vector of Accums costs no more memory than before.
func TestAccumSize(t *testing.T) {
	if got := unsafe.Sizeof(Accum{}); got != 288 {
		t.Fatalf("Accum is %d bytes, want 288", got)
	}
}

// TestAverageParamsOrderInvariant pins the new contract of AverageParams
// directly: shuffling the sources never changes a single output bit.
func TestAverageParamsOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const dim = 33
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		srcs := make([][]float64, n)
		for i := range srcs {
			srcs[i] = make([]float64, dim)
			for j := range srcs[i] {
				srcs[i][j] = randFinite(rng)
			}
		}
		a := make([]float64, dim)
		b := make([]float64, dim)
		AverageParams(a, srcs...)
		perm := rng.Perm(n)
		shuffled := make([][]float64, n)
		for i, p := range perm {
			shuffled[i] = srcs[p]
		}
		AverageParams(b, shuffled...)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("trial %d param %d: %v != %v after shuffle", trial, j, a[j], b[j])
			}
		}
	}
}

// refAccum is Accum as it was before the live span: every operation walks
// all 34 limbs, and the array holds the whole 2176-bit integer. It is the
// oracle FuzzAccumMatchesReference holds the span implementation to, limb
// for limb, reading for reading and byte for byte.
type refAccum struct {
	limb                [accLimbs]uint64
	nan, posInf, negInf uint32
}

func (a *refAccum) Reset() { *a = refAccum{} }

func (a *refAccum) Add(v float64) {
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
		e = 1
	}
	if m == 0 {
		return
	}
	s := e - 1075 + accOffset
	li, off := s>>6, uint(s&63)
	lo := m << off
	var hi uint64
	if off != 0 {
		hi = m >> (64 - off)
	}
	if b>>63 == 0 {
		var c uint64
		a.limb[li], c = bits.Add64(a.limb[li], lo, 0)
		a.limb[li+1], c = bits.Add64(a.limb[li+1], hi, c)
		for i := li + 2; c != 0 && i < accLimbs; i++ {
			a.limb[i], c = bits.Add64(a.limb[i], 0, c)
		}
	} else {
		var bw uint64
		a.limb[li], bw = bits.Sub64(a.limb[li], lo, 0)
		a.limb[li+1], bw = bits.Sub64(a.limb[li+1], hi, bw)
		for i := li + 2; bw != 0 && i < accLimbs; i++ {
			a.limb[i], bw = bits.Sub64(a.limb[i], 0, bw)
		}
	}
}

func (a *refAccum) AddAccum(b *refAccum) {
	var c uint64
	for i := range a.limb {
		a.limb[i], c = bits.Add64(a.limb[i], b.limb[i], c)
	}
	a.nan += b.nan
	a.posInf += b.posInf
	a.negInf += b.negInf
}

func (a *refAccum) negate() {
	var c uint64 = 1
	for i := range a.limb {
		a.limb[i], c = bits.Add64(^a.limb[i], 0, c)
	}
}

func (a *refAccum) window(from int) uint64 {
	li, off := from>>6, uint(from&63)
	w := a.limb[li] >> off
	if off != 0 && li+1 < accLimbs {
		w |= a.limb[li+1] << (64 - off)
	}
	return w
}

func (a *refAccum) anyBelow(n int) bool {
	if n <= 0 {
		return false
	}
	li, off := n>>6, uint(n&63)
	for i := 0; i < li; i++ {
		if a.limb[i] != 0 {
			return true
		}
	}
	return off != 0 && li < accLimbs && a.limb[li]<<(64-off) != 0
}

func (a *refAccum) Round() float64 {
	if a.nan > 0 || (a.posInf > 0 && a.negInf > 0) {
		return math.NaN()
	}
	if a.posInf > 0 {
		return math.Inf(1)
	}
	if a.negInf > 0 {
		return math.Inf(-1)
	}
	m := *a
	neg := m.limb[accLimbs-1]>>63 != 0
	if neg {
		m.negate()
	}
	h := accLimbs - 1
	for h >= 0 && m.limb[h] == 0 {
		h--
	}
	if h < 0 {
		return 0
	}
	msb := 64*h + bits.Len64(m.limb[h]) - 1
	lsb := msb - 52
	if msb < accSubLSB+52 {
		lsb = accSubLSB
	}
	mant := m.window(lsb)
	if w := msb - lsb + 1; w < 64 {
		mant &= 1<<uint(w) - 1
	}
	if g := m.window(lsb-1) & 1; g == 1 && (mant&1 == 1 || m.anyBelow(lsb-1)) {
		mant++
	}
	v := math.Ldexp(float64(mant), lsb-accOffset)
	if neg {
		v = -v
	}
	return v
}

func (a *refAccum) AppendWire(dst []byte) []byte {
	m := *a
	var flags byte
	if m.limb[accLimbs-1]>>63 != 0 {
		flags |= accFlagNeg
		m.negate()
	}
	lo, hi := 0, accLimbs-1
	for lo < accLimbs && m.limb[lo] == 0 {
		lo++
	}
	for hi >= lo && m.limb[hi] == 0 {
		hi--
	}
	span := 0
	if lo <= hi {
		span = hi - lo + 1
	}
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
		dst = append(dst, byte(lo))
		for i := lo; i <= hi; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, m.limb[i])
		}
	}
	return dst
}

func refDecodeAccumInto(a *refAccum, src []byte) (int, error) {
	if len(src) < 1 {
		return 0, fmt.Errorf("empty")
	}
	flags := src[0]
	span := int(flags & accSpanMask)
	if span > accLimbs {
		return 0, fmt.Errorf("span %d", span)
	}
	n := 1
	a.Reset()
	if flags&accFlagNonFinite != 0 {
		if len(src) < n+12 {
			return 0, fmt.Errorf("truncated tallies")
		}
		a.nan = binary.LittleEndian.Uint32(src[n:])
		a.posInf = binary.LittleEndian.Uint32(src[n+4:])
		a.negInf = binary.LittleEndian.Uint32(src[n+8:])
		n += 12
	}
	if span > 0 {
		if len(src) < n+1+8*span {
			return 0, fmt.Errorf("truncated span")
		}
		lo := int(src[n])
		n++
		if lo+span > accLimbs {
			return 0, fmt.Errorf("span origin %d", lo)
		}
		for i := 0; i < span; i++ {
			a.limb[lo+i] = binary.LittleEndian.Uint64(src[n:])
			n += 8
		}
		if flags&accFlagNeg != 0 {
			a.negate()
		}
	}
	return n, nil
}

// fuzzInput reads a fuzz input as a stream of operands. Exhausted input
// reads as zeros.
type fuzzInput struct {
	in []byte
}

// accTrace interprets a fuzz input as a sequence of operations on two
// accumulators, each mirrored on a refAccum.
type accTrace struct {
	fuzzInput
	got  [2]Accum
	want [2]refAccum
}

func (tr *fuzzInput) next() byte {
	if len(tr.in) == 0 {
		return 0
	}
	b := tr.in[0]
	tr.in = tr.in[1:]
	return b
}

func (tr *fuzzInput) take(n int) []byte {
	n = min(n, len(tr.in))
	b := tr.in[:n]
	tr.in = tr.in[n:]
	return b
}

// value draws a summand, favouring the edges of the float64 range.
func (tr *fuzzInput) value() float64 {
	sign := 1.0
	if tr.next()&1 != 0 {
		sign = -1
	}
	var raw [8]byte
	switch tr.next() % 10 {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.SmallestNonzeroFloat64
	case 2:
		return sign * math.MaxFloat64
	case 3:
		return math.NaN()
	case 4:
		return math.Inf(int(sign))
	case 5: // float32-exact, as a dense-codec parameter is
		copy(raw[:], tr.take(4))
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[:])))
	case 6: // subnormal
		copy(raw[:], tr.take(8))
		return sign * math.Float64frombits(binary.LittleEndian.Uint64(raw[:])&(1<<52-1))
	case 7, 8: // similar magnitudes: cancellation and carries at one spot
		return sign * float64(tr.next()) * math.Ldexp(1, int(tr.next()%16)-8)
	}
	copy(raw[:], tr.take(8))
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

// decode decodes enc into accumulator k of both implementations, which must
// agree on the outcome.
func (tr *accTrace) decode(t *testing.T, k int, enc []byte) {
	n, err := DecodeAccumInto(&tr.got[k], enc)
	rn, rerr := refDecodeAccumInto(&tr.want[k], enc)
	if n != rn || (err == nil) != (rerr == nil) {
		t.Fatalf("decode of %x: (%d, %v), reference (%d, %v)", enc, n, err, rn, rerr)
	}
}

// step applies one operation to accumulator k (and, for merges and
// copies, reads the other, o).
func (tr *accTrace) step(t *testing.T) {
	op := tr.next()
	k := int(op>>7) & 1
	o := 1 - k
	g, w := &tr.got[k], &tr.want[k]
	switch op & 7 {
	case 0, 1:
		v := tr.value()
		g.Add(v)
		w.Add(v)
	case 2:
		g.AddAccum(&tr.got[o])
		w.AddAccum(&tr.want[o])
	case 3:
		g.AddAccum(g)
		w.AddAccum(w)
	case 4:
		g.Reset()
		w.Reset()
	case 5: // copy over the wire, optionally negated: a merge then cancels
		enc := tr.got[o].AppendWire(nil)
		if tr.next()&1 != 0 && enc[0]&accSpanMask != 0 {
			enc[0] ^= accFlagNeg
		}
		tr.decode(t, k, enc)
	case 6: // copy over the wire with zero limbs padded onto the span
		enc := tr.got[o].AppendWire(nil)
		flags, body := enc[0], enc[1:]
		var tallies []byte
		if flags&accFlagNonFinite != 0 {
			tallies, body = body[:12], body[12:]
		}
		lo, limbs := 0, []byte(nil)
		if len(body) > 0 {
			lo, limbs = int(body[0]), body[1:]
		}
		span := int(flags & accSpanMask)
		below := min(int(tr.next()%4), lo)
		above := min(int(tr.next()%4), accLimbs-lo-span)
		if span+below+above == 0 {
			break
		}
		pad := append([]byte{flags&^accSpanMask | byte(span+below+above)}, tallies...)
		pad = append(pad, byte(lo-below))
		pad = append(pad, make([]byte, 8*below)...)
		pad = append(pad, limbs...)
		pad = append(pad, make([]byte, 8*above)...)
		tr.decode(t, k, pad)
	case 7: // hostile bytes
		tr.decode(t, k, tr.take(int(tr.next()%48)))
	}
}

// check compares both accumulators with their references: every limb of
// the integer, the tallies, the Round bits and the wire bytes.
func (tr *accTrace) check(t *testing.T, step int) {
	for k := range tr.got {
		g, w := &tr.got[k], &tr.want[k]
		if g.lo > g.hi || g.hi > accLimbs {
			t.Fatalf("step %d, acc %d: span [%d,%d) out of order", step, k, g.lo, g.hi)
		}
		for i := 0; i < accLimbs; i++ {
			if g.at(i) != w.limb[i] {
				t.Fatalf("step %d, acc %d: limb %d is %#x, reference %#x (span [%d,%d), neg %v)",
					step, k, i, g.at(i), w.limb[i], g.lo, g.hi, g.neg)
			}
		}
		if g.nan != w.nan || g.posInf != w.posInf || g.negInf != w.negInf {
			t.Fatalf("step %d, acc %d: tallies differ", step, k)
		}
		if got, want := math.Float64bits(g.Round()), math.Float64bits(w.Round()); got != want {
			t.Fatalf("step %d, acc %d: Round %#x, reference %#x", step, k, got, want)
		}
		if got, want := g.AppendWire(nil), w.AppendWire(nil); !bytes.Equal(got, want) {
			t.Fatalf("step %d, acc %d: wire %x, reference %x", step, k, got, want)
		}
	}
}

// accSeed assembles a fuzz seed from operations.
func accSeed(ops ...[]byte) []byte {
	var s []byte
	for _, op := range ops {
		s = append(s, op...)
	}
	return s
}

// FuzzAccumMatchesReference runs random operation sequences on Accum and on
// refAccum, the full-width implementation it replaced, and requires them to
// hold the same integer after every operation. The seeds drive the span's
// edges: carries off the top limb through repeated self-merge, merges that
// cancel to zero or flip the sign, padded and hostile decodes.
func FuzzAccumMatchesReference(f *testing.F) {
	var (
		addMax    = []byte{0, 0, 2}       // Add(+MaxFloat64) to acc 0
		addNegMax = []byte{0, 1, 2}       // Add(-MaxFloat64) to acc 0
		addTiny   = []byte{0x80, 1, 1}    // Add(-2^-1074) to acc 1
		addOne    = []byte{0, 0, 7, 1, 8} // Add(+1) to acc 0
		addNegOne = []byte{0x80, 1, 7, 1, 8}
		selfMerge = []byte{3}
		merge10   = []byte{0x82} // acc 1 += acc 0
		merge01   = []byte{2}    // acc 0 += acc 1
		negCopy10 = []byte{0x85, 1}
		padCopy10 = []byte{0x86, 3, 3}
	)
	doubling := func(base []byte, n int) []byte {
		s := accSeed(base)
		for i := 0; i < n; i++ {
			s = append(s, selfMerge...)
		}
		return s
	}
	f.Add(doubling(addMax, 70))
	f.Add(doubling(addNegMax, 70))
	f.Add(accSeed(addOne, addTiny, merge10, negCopy10, merge01, merge10))
	f.Add(accSeed(addNegOne, addTiny, addTiny, merge01, addOne, addOne, merge01, padCopy10, merge10))
	f.Add(accSeed(addMax, negCopy10, addTiny, merge01, merge01, merge10, padCopy10))
	f.Add(accSeed(addNegOne, []byte{0x87, 4, 0x80 | 2, 17, 0, 0, 0}, merge01))
	// A negative sign on an all-zero padded span decodes to zero.
	f.Add(accSeed([]byte{7, 10, 0x80 | 1, 5, 0, 0, 0, 0, 0, 0, 0, 0}, addTiny, merge01))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		seed := make([]byte, 16+rng.Intn(112))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tr := &accTrace{fuzzInput: fuzzInput{in: in}}
		for step := 0; len(tr.in) > 0; step++ {
			tr.step(t)
			tr.check(t, step)
		}
	})
}
