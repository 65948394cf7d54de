package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchGeneric is ForwardBatch followed by BackwardBatch with the portable
// kernels of kernels.go in place of forwardHidden, seedDelta and
// gradHidden, on arguments ForwardBatch and BackwardBatch would accept. On
// amd64 it is the oracle the SSE2 kernels are held to; elsewhere it runs
// the same code as the methods.
func batchGeneric(n *Network, actions []int, outs, gs, grad []float64) {
	last := len(n.sizes) - 2
	for l := 0; l < last; l++ {
		forwardHiddenGeneric(n.sizes[l], n.weights(l), n.biases(l), n.bacts[l], n.bpre[l], n.bacts[l+1])
	}
	n.forwardOutput(actions, outs)
	n.backwardOutput(actions, gs, grad)
	if last == 0 {
		return
	}
	seedDeltaGeneric(n.sizes[last], n.weights(last), gs, actions, n.bpre[last-1], n.bdelta[last])
	for l := last - 1; l >= 0; l-- {
		nin, nout := n.sizes[l], n.sizes[l+1]
		gw := grad[n.wOff[l] : n.wOff[l]+nin*nout]
		gb := grad[n.bOff[l] : n.bOff[l]+nout]
		gradHiddenGeneric(nin, n.bdelta[l+1], n.bacts[l], gw, gb)
		if l > 0 {
			n.propagateBatch(len(actions), l)
		}
	}
}

// kernelEdgeValues are the bit patterns kernelValue draws besides ordinary
// normals: both zeros, a quiet and a signalling NaN, both infinities,
// subnormals and the extreme finite values.
var kernelEdgeValues = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff000000000beef),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x800fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64,
}

// kernelValue draws a value for a kernel input: mostly ordinary normals
// (mean-shifted so about half the ReLU units die), often an exact zero of
// either sign, sometimes an edge value, and rarely a raw 64-bit pattern.
func kernelValue(rng *rand.Rand) float64 {
	switch r := rng.Intn(16); {
	case r < 9:
		return rng.NormFloat64() - 0.3
	case r < 12:
		return signedZero(rng)
	case r < 15:
		return kernelEdgeValues[rng.Intn(len(kernelEdgeValues))]
	default:
		return math.Float64frombits(rng.Uint64())
	}
}

// kernelCase is one batched update to run both ways: a net of the given
// sizes, the batch's states, actions and loss gradients, and the gradient
// buffer both sides accumulate onto. Every float is a kernelValue draw
// until raw, eight bytes at a time, overwrites the states, then gs, then
// the gradient cells, then the parameters, cycling through them.
type kernelCase struct {
	params, states, gs, grad []float64
	actions                  []int
	sizes                    []int
}

func newKernelCase(rng *rand.Rand, sizes []int, batch int, raw []byte) *kernelCase {
	c := &kernelCase{sizes: sizes}
	n := shaped(sizes)
	draw := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = kernelValue(rng)
		}
		return v
	}
	c.params = draw(n.NumParams())
	c.states = draw(batch * sizes[0])
	c.gs = draw(batch)
	c.grad = draw(n.NumParams())
	c.actions = make([]int, batch)
	for s := range c.actions {
		c.actions[s] = rng.Intn(sizes[len(sizes)-1])
	}
	cells := [][]float64{c.states, c.gs, c.grad, c.params}
	for k := 0; len(raw) >= 8; k++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
		raw = raw[8:]
		dst := cells[k%len(cells)]
		dst[(k/len(cells))%len(dst)] = v
	}
	return c
}

// run performs the update on a fresh network holding the case's
// parameters, through the methods or through batchGeneric, and returns the
// network (whose batch caches then hold the pass's activations,
// pre-activations and deltas), the outputs and the accumulated gradient.
func (c *kernelCase) run(generic bool) (n *Network, outs, grad []float64) {
	n = FromParams(c.params, c.sizes...)
	copy(n.BatchStates(len(c.actions)), c.states)
	outs = make([]float64, len(c.actions))
	grad = append([]float64(nil), c.grad...)
	if generic {
		batchGeneric(n, c.actions, outs, c.gs, grad)
	} else {
		n.ForwardBatch(c.actions, outs)
		n.BackwardBatch(c.actions, c.gs, grad)
	}
	return n, outs, grad
}

// diff runs the case both ways and describes the first value on which
// they disagree — bits compared, NaNs by class — or returns "".
func (c *kernelCase) diff() string {
	n, outs, grad := c.run(false)
	g, gouts, ggrad := c.run(true)
	check := func(what string, got, want []float64) string {
		for i := range got {
			if !sameFloat(got[i], want[i]) {
				return fmt.Sprintf("sizes %v batch %d: %s[%d] = %v (%#016x), generic %v (%#016x)",
					c.sizes, len(c.actions), what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		return ""
	}
	if d := check("outs", outs, gouts); d != "" {
		return d
	}
	if d := check("grad", grad, ggrad); d != "" {
		return d
	}
	for l := 1; l < len(c.sizes)-1; l++ {
		if d := check(fmt.Sprintf("act[%d]", l), n.bacts[l], g.bacts[l]); d != "" {
			return d
		}
		if d := check(fmt.Sprintf("pre[%d]", l-1), n.bpre[l-1], g.bpre[l-1]); d != "" {
			return d
		}
		if d := check(fmt.Sprintf("delta[%d]", l), n.bdelta[l], g.bdelta[l]); d != "" {
			return d
		}
	}
	return ""
}

// TestBatchKernelsMatchGeneric holds the batched update (SSE2 on amd64) to
// the portable kernels bit for bit, NaNs by class: outputs, gradient and
// every cached activation, pre-activation and delta, on one to three
// hidden layers whose widths cover every remainder of the 16-, 8- and
// 2-unit lane blocks, at batch sizes from 1 to 130, with ±0, NaN, ±Inf,
// subnormal and extreme values in the parameters, states, loss gradients
// and incoming gradient cells.
func TestBatchKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	widths := []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40}
	for trial := 0; trial < 300; trial++ {
		sizes := []int{1 + rng.Intn(8)}
		if trial%3 == 0 {
			sizes[0] = widths[rng.Intn(len(widths))]
		}
		for h := 1 + trial%3; h > 0; h-- {
			sizes = append(sizes, widths[rng.Intn(len(widths))])
		}
		sizes = append(sizes, 1+rng.Intn(16))
		batch := []int{1, 2, 7, 33, 128, 130}[trial%6]
		if d := newKernelCase(rng, sizes, batch, nil).diff(); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

// FuzzBatchKernelsMatchGeneric is TestBatchKernelsMatchGeneric on a net of
// fuzz-chosen widths (1 to 40 each, 1 to 3 hidden layers) and batch size
// (1 to 130), whose seeded draws are then overwritten by raw float64 bit
// patterns from the fuzz input (newKernelCase).
func FuzzBatchKernelsMatchGeneric(f *testing.F) {
	bits := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(0), uint8(5), uint8(32), uint8(0), uint8(0), uint8(15), uint8(128), int64(1), []byte(nil))
	f.Add(uint8(2), uint8(3), uint8(17), uint8(9), uint8(33), uint8(4), uint8(129), int64(2), bits(kernelEdgeValues...))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint8(0), uint8(1), uint8(0), int64(3),
		bits(math.Copysign(0, -1), 0, math.Copysign(0, -1), math.Copysign(0, -1), 0, math.Copysign(0, -1)))
	f.Add(uint8(0), uint8(40), uint8(39), uint8(0), uint8(0), uint8(40), uint8(6), int64(4),
		bits(math.SmallestNonzeroFloat64, math.NaN(), math.Inf(-1), -1, 1))
	f.Fuzz(func(t *testing.T, hidden, nin, h1, h2, h3, nout, batch uint8, seed int64, raw []byte) {
		sizes := []int{1 + int(nin)%40}
		for _, h := range []uint8{h1, h2, h3}[:1+int(hidden)%3] {
			sizes = append(sizes, 1+int(h)%40)
		}
		sizes = append(sizes, 1+int(nout)%40)
		rng := rand.New(rand.NewSource(seed))
		if d := newKernelCase(rng, sizes, 1+int(batch)%130, raw).diff(); d != "" {
			t.Fatal(d)
		}
	})
}
