package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestParamSumFloat32UpdatesStayClean pins the premise ParamSum's speed
// rests on: float32 parameter vectors of one model, summed in float64, are
// exact, so a round of them never touches an accumulator — and the mean
// still equals MeanAccum's.
func TestParamSumFloat32UpdatesStayClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, clients = 687, 16
	s := NewParamSum(n)
	acc := make([]Accum, n)
	for c := 0; c < clients; c++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(float32(rng.NormFloat64() * 0.3))
		}
		s.Add(v)
		AddParamsAccum(acc, v)
	}
	if s.ndirty != 0 {
		t.Fatalf("%d of %d parameters spilled into their accumulators", s.ndirty, n)
	}
	got, want := make([]float64, n), make([]float64, n)
	s.Mean(got, clients)
	MeanAccum(want, acc, clients)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("param %d: mean %v, MeanAccum %v", i, got[i], want[i])
		}
	}
}

// Fold moves every lead into its accumulator and returns the accumulators,
// which then hold the whole sum: the plain Accum vector AppendWire's block
// is held to, entry by entry. The returned slice is the sum's own storage.
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

// AddAccums merges one accumulator per parameter into the sum, the plain
// path AddWire is held to: every merged parameter becomes dirty.
func (s *ParamSum) AddAccums(src []Accum) {
	for i := range src {
		s.mark(i)
		s.acc[i].AddAccum(&src[i])
	}
}

// sumLen is the vector length of the sum traces: a few parameters, so one
// vector mixes clean and dirty ones.
const sumLen = 3

// sumTrace interprets a fuzz input as a sequence of operations on two
// ParamSums, each mirrored on the plain Accum vector path — AddParamsAccum,
// MergeAccum, MeanAccum — that is its oracle.
type sumTrace struct {
	fuzzInput
	got  [2]*ParamSum
	want [2][]Accum
}

// value draws a summand: accTrace's edge values plus NaNs with a payload and
// sign of the input's choosing and values 2^60 apart, whose float64 sum is
// inexact.
func (tr *sumTrace) value() float64 {
	switch b := tr.next(); b % 4 {
	case 0:
		var raw [8]byte
		copy(raw[:], tr.take(8))
		frac := binary.LittleEndian.Uint64(raw[:])&(1<<52-1) | 1
		return math.Float64frombits(uint64(b>>7)<<63 | 0x7ff<<52 | frac)
	case 1:
		m := float64(int8(tr.next()))
		return math.Ldexp(m, 60*int(tr.next()%4)-60)
	}
	return tr.fuzzInput.value()
}

// vector draws one parameter vector.
func (tr *sumTrace) vector() []float64 {
	v := make([]float64, sumLen)
	for i := range v {
		v[i] = tr.value()
	}
	return v
}

// cloneSum copies a sum, so a reading that folds leads can be taken without
// changing which path the traced sum takes next.
func cloneSum(s *ParamSum) *ParamSum {
	return &ParamSum{lead: slices.Clone(s.lead), acc: slices.Clone(s.acc),
		dirty: slices.Clone(s.dirty), ndirty: s.ndirty}
}

// compareMean requires s's n-way mean to equal MeanAccum's over want, bit
// for bit.
func compareMean(t *testing.T, step, k int, s *ParamSum, want []Accum, n int) {
	got, ref := make([]float64, sumLen), make([]float64, sumLen)
	s.Mean(got, n)
	MeanAccum(ref, want, n)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("step %d, sum %d, param %d: mean/%d %#x, MeanAccum %#x",
				step, k, i, n, math.Float64bits(got[i]), math.Float64bits(ref[i]))
		}
	}
}

// compareFold requires s's folded accumulators to encode to want's bytes.
func compareFold(t *testing.T, step, k int, s *ParamSum, want []Accum) {
	for i, a := range s.Fold() {
		if got, ref := a.AppendWire(nil), want[i].AppendWire(nil); !bytes.Equal(got, ref) {
			t.Fatalf("step %d, sum %d, param %d: folded wire %x, Accum wire %x", step, k, i, got, ref)
		}
	}
}

// oracleBlock is the relay block of the Accum vector acc: each
// accumulator's AppendWire encoding, back to back.
func oracleBlock(acc []Accum) []byte {
	var b []byte
	for i := range acc {
		b = acc[i].AppendWire(b)
	}
	return b
}

// compareAppendWire requires s.AppendWire, onto a prefix of the input's
// choosing in a buffer of the input's capacity, to keep the prefix and
// write the bytes of s's Fold + AppendWire oracle (taken on a copy first),
// which are want's.
func (tr *sumTrace) compareAppendWire(t *testing.T, step, k int, s *ParamSum, want []Accum) {
	ref := oracleBlock(cloneSum(s).Fold())
	if plain := oracleBlock(want); !bytes.Equal(ref, plain) {
		t.Fatalf("step %d, sum %d: folded block %x, Accum block %x", step, k, ref, plain)
	}
	prefix := tr.take(int(tr.next() % 4))
	dst := append(make([]byte, 0, len(prefix)+int(tr.next())), prefix...)
	got := s.AppendWire(dst)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], ref) {
		t.Fatalf("step %d, sum %d: AppendWire %x after prefix %x, oracle %x", step, k, got, prefix, ref)
	}
}

// addWire merges block into sum k through AddWire and, on the oracle,
// through DecodeAccumInto + AddAccum, entry by entry. The block must pass
// ScanAccumWire first, as a relay frame does.
func (tr *sumTrace) addWire(t *testing.T, step, k int, block []byte) {
	if err := ScanAccumWire(block, sumLen); err != nil {
		t.Fatalf("step %d: ScanAccumWire rejects %x: %v", step, block, err)
	}
	w := tr.want[k]
	rest := block
	for i := range w {
		var tmp Accum
		n, err := DecodeAccumInto(&tmp, rest)
		if err != nil {
			t.Fatalf("step %d: DecodeAccumInto rejects entry %d of a scanned block %x: %v", step, i, block, err)
		}
		w[i].AddAccum(&tmp)
		rest = rest[n:]
	}
	tr.got[k].AddWire(block)
}

// limbs draws n magnitude limbs.
func (tr *sumTrace) limbs(n int) []uint64 {
	l := make([]uint64, n)
	for i := range l {
		var raw [8]byte
		copy(raw[:], tr.take(8))
		l[i] = binary.LittleEndian.Uint64(raw[:])
	}
	return l
}

// putEntry encodes one accumulator entry from its parts as AppendWire's
// format does, without trimming: tallies (when non-nil), then the origin
// and the limbs as given.
func putEntry(neg bool, tallies []uint32, origin int, limbs []uint64) []byte {
	flags := byte(len(limbs))
	if neg {
		flags |= accFlagNeg
	}
	if tallies != nil {
		flags |= accFlagNonFinite
	}
	b := []byte{flags}
	for _, c := range tallies {
		b = binary.LittleEndian.AppendUint32(b, c)
	}
	if len(limbs) > 0 {
		b = append(b, byte(origin))
		for _, l := range limbs {
			b = binary.LittleEndian.AppendUint64(b, l)
		}
	}
	return b
}

// entry returns one entry of a hostile relay block: the canonical
// encoding canon, or a valid encoding no AppendWire writes.
func (tr *sumTrace) entry(canon []byte) []byte {
	b := tr.next()
	origin := int(tr.next()) % accLimbs
	neg := b>>7 != 0
	switch b & 7 {
	case 1: // canon with a zero limb padded on, above or below
		var a Accum
		if _, err := DecodeAccumInto(&a, canon); err != nil {
			panic(err)
		}
		m := a.magnitude()
		var tallies []uint32
		if a.nan != 0 || a.posInf != 0 || a.negInf != 0 {
			tallies = []uint32{a.nan, a.posInf, a.negInf}
		}
		if m.top < 0 {
			return putEntry(neg, tallies, origin, []uint64{0})
		}
		var l []uint64
		for i := m.bottom; i <= m.top; i++ {
			l = append(l, m.limb(i))
		}
		switch {
		case m.top+1 < accLimbs && (b&8 == 0 || m.bottom == 0):
			return putEntry(m.neg, tallies, m.bottom, append(l, 0))
		case m.bottom > 0:
			return putEntry(m.neg, tallies, m.bottom-1, append([]uint64{0}, l...))
		}
		return canon
	case 2: // a zero magnitude, signed either way, over 1–3 limbs
		return putEntry(neg, nil, min(origin, accLimbs-3), make([]uint64, 1+int(b>>3)%3))
	case 3: // bits below 2^-1074
		l := tr.limbs(1 + int(b>>3)%2)
		l[0] |= 1 << (b >> 4 % accSubLSB)
		return putEntry(neg, nil, 0, l)
	case 4: // a magnitude of 2^1024 or more
		l := tr.limbs(1 + int(b>>3)&1)
		l[len(l)-1] |= 1 << (b >> 4 % 64)
		return putEntry(neg, nil, accLimbs-len(l), l)
	case 5: // a span of three or more limbs
		span := 3 + int(b>>3)%5
		return putEntry(neg, nil, min(origin, accLimbs-span), tr.limbs(span))
	case 6: // non-finite tallies, with or without a finite part
		tallies := []uint32{uint32(b>>3) & 1, uint32(b>>4) & 3, uint32(b>>6) & 1}
		return putEntry(neg, tallies, min(origin, accLimbs-1), tr.limbs(int(b>>5)&1))
	case 7: // one or two raw limbs: a float64 or wider than one
		span := 1 + int(b>>3)&1
		return putEntry(neg, nil, min(origin, accLimbs-span), tr.limbs(span))
	}
	return canon
}

// hostileBlock builds a relay block from the other sum's oracle encodings,
// each kept or replaced by a hostile entry.
func (tr *sumTrace) hostileBlock(o int) []byte {
	var block []byte
	for i := range tr.want[o] {
		block = append(block, tr.entry(tr.want[o][i].AppendWire(nil))...)
	}
	return block
}

// step applies one operation to sum k (and, for merges, reads the other,
// o).
func (tr *sumTrace) step(t *testing.T, step int) {
	op := tr.next()
	k := int(op>>7) & 1
	o := 1 - k
	g, w := tr.got[k], tr.want[k]
	switch op & 15 {
	case 0, 1:
		v := tr.vector()
		g.Add(v)
		AddParamsAccum(w, v)
	case 2:
		g.AddSum(tr.got[o])
		MergeAccum(w, tr.want[o])
	case 3:
		g.AddSum(g)
		MergeAccum(w, w)
	case 4: // the other sum's relay frame, as Accums
		g.AddAccums(cloneSum(tr.got[o]).Fold())
		MergeAccum(w, tr.want[o])
	case 5:
		g.Reset()
		for i := range w {
			w[i].Reset()
		}
	case 6:
		compareMean(t, step, k, g, w, 1+int(tr.next()))
	case 7:
		compareFold(t, step, k, g, w)
	case 8, 9:
		tr.compareAppendWire(t, step, k, g, w)
	case 10, 11: // the other sum's relay frame, as bytes
		tr.addWire(t, step, k, tr.got[o].AppendWire(nil))
	case 12, 13: // a relay frame no AppendWire writes
		tr.addWire(t, step, k, tr.hostileBlock(o))
	case 14: // a sum's own frame merged into itself
		tr.addWire(t, step, k, g.AppendWire(nil))
	case 15: // a frame of zero entries
		tr.addWire(t, step, k, make([]byte, sumLen))
	}
}

// check compares both sums with their oracles on copies: the mean's bits,
// the folded and the AppendWire bytes, and the dirty count.
func (tr *sumTrace) check(t *testing.T, step int) {
	for k, g := range tr.got {
		dirty := 0
		for _, d := range g.dirty {
			if d {
				dirty++
			}
		}
		if dirty != g.ndirty {
			t.Fatalf("step %d, sum %d: %d dirty parameters, count says %d", step, k, dirty, g.ndirty)
		}
		compareMean(t, step, k, cloneSum(g), tr.want[k], 1)
		compareFold(t, step, k, cloneSum(g), tr.want[k])
		if got, ref := cloneSum(g).AppendWire(nil), oracleBlock(tr.want[k]); !bytes.Equal(got, ref) {
			t.Fatalf("step %d, sum %d: AppendWire %x, Accum block %x", step, k, got, ref)
		}
	}
}

// FuzzParamSumMatchesAccum runs random operation sequences on ParamSum and
// on the plain Accum vector it stands in front of, and requires every mean
// bit and every relay-block byte to agree after every operation. The seeds
// drive the lead's edges: NaN payloads and infinities, ±MaxFloat64 pairs
// that overflow it, ±0 and subnormals, float32-exact values that keep it
// clean, values 2^60 apart that spill it, and merges, folds and readings of
// half-dirty sums. The relay ops hold AppendWire to Fold + AppendWire and
// AddWire to DecodeAccumInto + AddAccum, over blocks that mix canonical
// entries with valid hostile ones: padded spans, signed zero magnitudes,
// bits below 2^-1074, magnitudes of 2^1024 and more, spans of three or
// more limbs and non-finite tallies.
func FuzzParamSumMatchesAccum(f *testing.F) {
	var (
		nan     = []byte{0, 0x35, 0x12, 0, 0, 0, 0, 0, 0}       // NaN, payload 0x1235
		negNaN  = []byte{0x80, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0} // -NaN, payload 0xffffff
		max     = []byte{2, 0, 2}                               // +MaxFloat64
		negMax  = []byte{2, 1, 2}                               // -MaxFloat64
		inf     = []byte{2, 0, 4}                               // +Inf
		negInf  = []byte{2, 1, 4}                               // -Inf
		zero    = []byte{2, 0, 0}                               // +0
		negZero = []byte{2, 1, 0}                               // -0
		tiny    = []byte{2, 1, 1}                               // -2^-1074
		sub     = []byte{2, 0, 6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}
		f32     = []byte{2, 0, 5, 0x9a, 0x99, 0x99, 0x3e} // float32(0.3)
		one     = []byte{1, 1, 1}                         // 1
		big     = []byte{1, 3, 2}                         // 3·2^60
		small   = []byte{1, 5, 0}                         // 5·2^-60
	)
	add := func(k byte, vs ...[]byte) []byte { return accSeed(append([][]byte{{k << 7}}, vs...)...) }
	var (
		merge01  = []byte{2}    // sum 0 += sum 1
		merge10  = []byte{0x82} // sum 1 += sum 0
		self0    = []byte{3}
		relay10  = []byte{0x84} // sum 1 += sum 0's relay frame
		reset0   = []byte{5}
		mean0    = []byte{6, 2} // sum 0's mean over 3
		fold0    = []byte{7}
		fold1    = []byte{0x87}
		float32s = add(0, f32, f32, f32)
		append0  = []byte{8, 2, 0xaa, 0xbb, 1} // sum 0's AppendWire after a 2-byte prefix, 1 spare byte
		append1  = []byte{0x88, 0, 255}
		wire10   = []byte{0x8a} // sum 1 += sum 0's AppendWire block
		wire01   = []byte{10}
		selfWire = []byte{14}
		zeros1   = []byte{0x8f}
	)
	hostile10 := func(entries ...[]byte) []byte { return accSeed(append([][]byte{{0x8c}}, entries...)...) }
	var (
		padAbove = []byte{1, 0}
		padBelow = []byte{9, 0}
		negZero2 = []byte{0x82, 5}
		below    = []byte{0x13, 0, 1, 2, 3, 4, 5, 6, 7, 8}
		huge     = []byte{0x84, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		wide     = []byte{5, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80}
		tallies  = []byte{0x7e, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}
		rawOne   = []byte{7, 16, 0, 0, 0, 0, 0, 0, 0, 0x80}
		rawWide  = []byte{0x8f, 16, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}
	)
	f.Add(accSeed(add(0, nan, negNaN, nan), add(0, nan, one, inf)))
	f.Add(accSeed(add(0, inf, negInf, one), add(0, negInf, negInf, inf), mean0, merge10))
	f.Add(accSeed(add(0, max, negMax, max), add(0, max, negMax, negMax), add(0, negMax, max, max), mean0, self0))
	f.Add(accSeed(add(1, max, max, negMax), relay10, merge01, merge10, fold1, merge01))
	f.Add(accSeed(add(0, zero, negZero, tiny), add(0, negZero, negZero, sub), add(0, tiny, sub, zero), self0, mean0))
	f.Add(accSeed(float32s, float32s, float32s, mean0, merge10, self0, relay10, fold0, merge10))
	f.Add(accSeed(add(0, one, big, small), add(0, big, small, one), add(0, small, one, big), mean0, merge10, merge10))
	f.Add(accSeed(add(0, big, big, big), add(1, small, small, small), merge01, fold0, add(0, one, one, one), relay10, reset0, merge10))
	f.Add(accSeed(float32s, append0, wire10, add(0, sub, tiny, one), wire10, append1, mean0, wire01, selfWire, zeros1))
	f.Add(accSeed(add(0, max, max, inf), add(0, big, small, nan), wire10, append1, selfWire, wire01, fold1))
	f.Add(accSeed(add(0, one, big, small), hostile10(padAbove, negZero2, below), append1, hostile10(huge, wide, tallies), wire01))
	f.Add(accSeed(add(0, sub, negMax, f32), hostile10(rawOne, rawWide, padBelow), append1, wire01, mean0, hostile10(padBelow, padAbove, rawOne)))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		seed := make([]byte, 16+rng.Intn(112))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tr := &sumTrace{fuzzInput: fuzzInput{in: in}}
		for k := range tr.got {
			tr.got[k] = NewParamSum(sumLen)
			tr.want[k] = make([]Accum, sumLen)
		}
		for step := 0; len(tr.in) > 0; step++ {
			tr.step(t, step)
			tr.check(t, step)
		}
	})
}

// scanMatchesDecode requires ScanAccumWire(in, 1) to accept in exactly
// when DecodeAccumInto accepts it and consumes every byte, and to fail
// with DecodeAccumInto's error text, behind the entry's index, or with the
// trailing-byte count.
func scanMatchesDecode(t *testing.T, in []byte) {
	t.Helper()
	var a Accum
	n, derr := DecodeAccumInto(&a, in)
	serr := ScanAccumWire(in, 1)
	switch {
	case derr != nil:
		if want := "accumulator 0: " + derr.Error(); serr == nil || serr.Error() != want {
			t.Fatalf("% x: ScanAccumWire %v, want %q", in, serr, want)
		}
	case n == len(in):
		if serr != nil {
			t.Fatalf("% x: ScanAccumWire rejects what DecodeAccumInto accepts: %v", in, serr)
		}
	default:
		if want := fmt.Sprintf("block has %d trailing bytes", len(in)-n); serr == nil || serr.Error() != want {
			t.Fatalf("% x: ScanAccumWire %v, want %q", in, serr, want)
		}
		if err := ScanAccumWire(in[:n], 1); err != nil {
			t.Fatalf("% x: ScanAccumWire rejects the %d bytes DecodeAccumInto consumes: %v", in, n, err)
		}
	}
}

// TestScanAccumWireMatchesDecode holds ScanAccumWire to DecodeAccumInto's
// acceptance rules and errors, entry by entry: a table of every rule's
// edge, then random corruptions of canonical encodings, then whole blocks.
func TestScanAccumWireMatchesDecode(t *testing.T) {
	var canon [][]byte
	for _, vs := range [][]float64{
		{}, {1.5}, {-math.MaxFloat64, -math.MaxFloat64}, {math.NaN(), 2}, {math.Inf(1), math.Inf(-1)},
		{0x1p-1074}, {0x1p100, 0x1p-100}, {-1, 0x1p-60},
	} {
		var a Accum
		for _, v := range vs {
			a.Add(v)
		}
		canon = append(canon, a.AppendWire(nil))
	}
	limbs := func(n int) []byte { return make([]byte, 8*n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	table := [][]byte{
		{},                          // empty
		{35},                        // span past the window
		{accSpanMask},               // the largest span field
		{accFlagNonFinite, 1, 0, 0}, // cut in the tallies
		cat([]byte{accFlagNonFinite}, limbs(2)[:12]), // tallies only
		{1},                                      // cut before the origin
		cat([]byte{1, 16}, limbs(1)[:5]),         // cut in the limbs
		cat([]byte{2, 33}, limbs(2)),             // span past the top limb
		cat([]byte{34, 0}, limbs(34)),            // the whole window
		cat([]byte{34, 1}, limbs(34)),            // the whole window, shifted out of range
		cat([]byte{accFlagNeg | 1, 5}, limbs(1)), // a negative zero magnitude
		cat([]byte{accFlagNeg | accFlagNonFinite | 3, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 31}, limbs(3)),
		cat(canon[1], []byte{0xee, 0xff}), // trailing bytes
	}
	for _, in := range append(table, canon...) {
		scanMatchesDecode(t, in)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		in := append([]byte(nil), canon[rng.Intn(len(canon))]...)
		switch rng.Intn(3) {
		case 0:
			in[rng.Intn(len(in))] ^= byte(1 + rng.Intn(255))
		case 1:
			in = in[:rng.Intn(len(in)+1)]
		default:
			in = append(in, byte(rng.Intn(256)))
		}
		scanMatchesDecode(t, in)
	}

	block := bytes.Join(canon, nil)
	if err := ScanAccumWire(block, len(canon)); err != nil {
		t.Fatalf("block of %d encodings: %v", len(canon), err)
	}
	want := fmt.Sprintf("accumulator %d: nn: accumulator encoding empty", len(canon))
	if err := ScanAccumWire(block, len(canon)+1); err == nil || err.Error() != want {
		t.Fatalf("block one entry short: %v, want %q", err, want)
	}
	want = fmt.Sprintf("block has %d trailing bytes", len(canon[len(canon)-1]))
	if err := ScanAccumWire(block, len(canon)-1); err == nil || err.Error() != want {
		t.Fatalf("block one entry long: %v, want %q", err, want)
	}
}
