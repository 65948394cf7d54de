package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forwardReference is Network.Forward as it was before the four-unit
// kernel: one unit at a time, a single accumulator per unit fed from its
// bias left to right, and the ReLU as a branch. Kept verbatim. Forward must
// leave the outputs and the pre/acts caches bit-identical to it for every
// net and input.
func forwardReference(n *Network, x []float64) []float64 {
	if len(x) != n.sizes[0] {
		panic(fmt.Sprintf("nn: Forward input length %d, want %d", len(x), n.sizes[0]))
	}
	copy(n.acts[0], x)
	last := len(n.sizes) - 2
	for l := 0; l <= last; l++ {
		in := n.acts[l]
		out := n.pre[l]
		w := n.weights(l)
		b := n.biases(l)
		nin, nout := n.sizes[l], n.sizes[l+1]
		for j := 0; j < nout; j++ {
			sum := b[j]
			row := w[j*nin : (j+1)*nin]
			for i, v := range in {
				sum += row[i] * v
			}
			out[j] = sum
		}
		act := n.acts[l+1]
		if l == last {
			copy(act, out) // linear output layer
		} else {
			for j, v := range out {
				if v > 0 {
					act[j] = v
				} else {
					act[j] = 0
				}
			}
		}
	}
	return n.acts[len(n.acts)-1]
}

// forwardEdgeValues are the inputs and parameters the kernels must agree on
// beyond ordinary numbers: both zeros (a dead unit whose pre-activation is
// -0 must still cache -0 and activate to +0), a quiet and a signalling NaN
// with distinct payloads, both infinities, subnormals and the largest
// finite magnitudes.
var forwardEdgeValues = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff000000000beef),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64,
}

// forwardDiff runs Forward on n and forwardReference on a clone of it and
// returns a description of the first output, pre-activation or activation
// bit that differs, or "".
//
// Two NaNs compare equal whatever their payloads. Where two NaNs meet in a
// product or a sum, the result keeps the payload of the operand the
// compiler put first, and the compiler orders a commutative op's operands
// as its register allocation suits: forwardReference itself keeps a
// different payload built for fuzzing (coverage instrumentation) than built
// for go test. Every other bit, the signs of zeros included, must match.
func forwardDiff(n *Network, x []float64) string {
	ref := n.Clone()
	got := n.Forward(x)
	want := forwardReference(ref, x)
	if &got[0] != &n.acts[len(n.acts)-1][0] {
		return "Forward returned a slice other than its output activations"
	}
	check := func(name string, g, w []float64) string {
		for i := range w {
			if math.IsNaN(g[i]) && math.IsNaN(w[i]) {
				continue
			}
			if gb, wb := math.Float64bits(g[i]), math.Float64bits(w[i]); gb != wb {
				return fmt.Sprintf("sizes %v: %s[%d] = %#016x (%g), reference %#016x (%g)",
					n.sizes, name, i, gb, g[i], wb, w[i])
			}
		}
		return ""
	}
	if d := check("out", got, want); d != "" {
		return d
	}
	for l := range ref.pre {
		if d := check(fmt.Sprintf("pre[%d]", l), n.pre[l], ref.pre[l]); d != "" {
			return d
		}
	}
	for l := range ref.acts {
		if d := check(fmt.Sprintf("acts[%d]", l), n.acts[l], ref.acts[l]); d != "" {
			return d
		}
	}
	return ""
}

// forwardTestNet builds a net of the given sizes whose parameters are He
// draws with every fifth replaced by an exact zero of either sign or, one
// time in four, by any edge value, and whose second hidden unit (where
// there is one) is dead: bias -0 and non-positive weights, so its
// pre-activation on non-negative inputs is exactly -0 or negative.
func forwardTestNet(rng *rand.Rand, sizes ...int) *Network {
	n := New(rng, sizes...)
	for i := range n.params {
		if rng.Intn(5) == 0 {
			n.params[i] = forwardEdgeValues[rng.Intn(2)] // ±0
			if rng.Intn(4) == 0 {
				n.params[i] = forwardEdgeValues[rng.Intn(len(forwardEdgeValues))]
			}
		}
	}
	if len(sizes) > 2 && sizes[1] > 1 {
		b := n.biases(0)
		b[1] = math.Copysign(0, -1)
		row := n.weights(0)[sizes[0] : 2*sizes[0]]
		for i := range row {
			row[i] = -math.Abs(rng.NormFloat64())
		}
	}
	return n
}

// forwardTestInputs returns inputs of width nin: ordinary draws, all zeros
// of both signs (which make the dead unit's pre-activation exactly -0),
// non-negative draws, and draws sprinkled with every edge value.
func forwardTestInputs(rng *rand.Rand, nin int) [][]float64 {
	var xs [][]float64
	for k := 0; k < 8; k++ {
		x := make([]float64, nin)
		for i := range x {
			switch k {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.Copysign(0, -1)
			case 2, 3:
				x[i] = math.Abs(rng.NormFloat64())
			case 4, 5:
				x[i] = rng.NormFloat64()
			default:
				x[i] = rng.NormFloat64()
				if rng.Intn(3) == 0 {
					x[i] = forwardEdgeValues[rng.Intn(len(forwardEdgeValues))]
				}
			}
		}
		xs = append(xs, x)
	}
	return xs
}

// TestForwardMatchesReference holds Forward to forwardReference, bit for
// bit in the outputs and both caches, across nets with no hidden layer and
// with one or two, every output width from 1 to 17 plus 32 and 33 (each
// remainder mod 4, and the widths below the four-unit block), input widths
// 1, 5 and 32, dead units, and edge-valued parameters and inputs.
func TestForwardMatchesReference(t *testing.T) {
	rng := newTestRand()
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 33}
	for _, nin := range []int{1, 5, 32} {
		for _, w := range widths {
			for _, sizes := range [][]int{{nin, w}, {nin, w, 15}, {nin, 32, w}, {nin, w, 7, w}} {
				n := forwardTestNet(rng, sizes...)
				for _, x := range forwardTestInputs(rng, nin) {
					if d := forwardDiff(n, x); d != "" {
						t.Fatalf("x=%v: %s", x, d)
					}
				}
			}
		}
	}
}

// FuzzForwardMatchesReference checks Forward against forwardReference on a
// net of fuzz-chosen widths (hidden 0 means no hidden layer), whose
// parameters and input start as seeded forwardTestNet/forwardTestInputs
// draws and are then overwritten, eight bytes at a time, by raw float64
// bit patterns from the fuzz input: the input first, then the parameters.
func FuzzForwardMatchesReference(f *testing.F) {
	bits := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(5), uint8(32), uint8(15), int64(1), []byte(nil))
	f.Add(uint8(1), uint8(0), uint8(1), int64(2), bits(math.Copysign(0, -1), math.Copysign(0, -1)))
	f.Add(uint8(3), uint8(6), uint8(33), int64(3), bits(forwardEdgeValues...))
	f.Add(uint8(32), uint8(3), uint8(5), int64(4), bits(0, 0, 0, math.NaN(), math.Inf(-1)))
	f.Add(uint8(2), uint8(5), uint8(2), int64(5), bits(1, 1, 0, math.Copysign(0, -1), -1, -1))
	f.Fuzz(func(t *testing.T, nin, hidden, nout uint8, seed int64, raw []byte) {
		sizes := []int{1 + int(nin)%40}
		if hidden != 0 {
			sizes = append(sizes, 1+int(hidden)%40)
		}
		sizes = append(sizes, 1+int(nout)%40)
		rng := rand.New(rand.NewSource(seed))
		n := forwardTestNet(rng, sizes...)
		xs := forwardTestInputs(rng, sizes[0])
		x := xs[int(uint64(seed)%uint64(len(xs)))]
		for k := 0; len(raw) >= 8; k++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
			if k < len(x) {
				x[k] = v
			} else {
				n.params[(k-len(x))%len(n.params)] = v
			}
		}
		if d := forwardDiff(n, x); d != "" {
			t.Fatalf("x=%v: %s", x, d)
		}
	})
}

// BenchmarkForward times one single-sample pass of the paper's 5-32-15
// policy, cycling through 256 states so the dead/alive pattern of the hidden
// units varies as on a deployed device, on Forward and on forwardReference
// in the same binary.
func BenchmarkForward(b *testing.B) {
	rng := newTestRand()
	n := New(rng, 5, 32, 15)
	states := make([][]float64, 256)
	for i := range states {
		states[i] = []float64{rng.Float64(), rng.Float64(), 2 * rng.Float64(), rng.Float64(), 10 * rng.Float64()}
	}
	for _, c := range []struct {
		name string
		fwd  func(x []float64) []float64
	}{
		{"kernel", n.Forward},
		{"reference", func(x []float64) []float64 { return forwardReference(n, x) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.fwd(states[i&255])
			}
		})
	}
}
