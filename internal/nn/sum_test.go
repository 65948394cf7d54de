package nn

import (
	"bytes"
	"encoding/binary"
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

// step applies one operation to sum k (and, for merges, reads the other,
// o).
func (tr *sumTrace) step(t *testing.T, step int) {
	op := tr.next()
	k := int(op>>7) & 1
	o := 1 - k
	g, w := tr.got[k], tr.want[k]
	switch op & 7 {
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
	case 4: // the other sum's relay frame
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
	}
}

// check compares both sums with their oracles on copies: the mean's bits,
// the folded wire bytes and the dirty count.
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
	}
}

// FuzzParamSumMatchesAccum runs random operation sequences on ParamSum and
// on the plain Accum vector it stands in front of, and requires every mean
// bit and every folded wire byte to agree after every operation. The seeds
// drive the lead's edges: NaN payloads and infinities, ±MaxFloat64 pairs
// that overflow it, ±0 and subnormals, float32-exact values that keep it
// clean, values 2^60 apart that spill it, and merges, folds and readings of
// half-dirty sums.
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
	)
	f.Add(accSeed(add(0, nan, negNaN, nan), add(0, nan, one, inf)))
	f.Add(accSeed(add(0, inf, negInf, one), add(0, negInf, negInf, inf), mean0, merge10))
	f.Add(accSeed(add(0, max, negMax, max), add(0, max, negMax, negMax), add(0, negMax, max, max), mean0, self0))
	f.Add(accSeed(add(1, max, max, negMax), relay10, merge01, merge10, fold1, merge01))
	f.Add(accSeed(add(0, zero, negZero, tiny), add(0, negZero, negZero, sub), add(0, tiny, sub, zero), self0, mean0))
	f.Add(accSeed(float32s, float32s, float32s, mean0, merge10, self0, relay10, fold0, merge10))
	f.Add(accSeed(add(0, one, big, small), add(0, big, small, one), add(0, small, one, big), mean0, merge10, merge10))
	f.Add(accSeed(add(0, big, big, big), add(1, small, small, small), merge01, fold0, add(0, one, one, one), relay10, reset0, merge10))
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
