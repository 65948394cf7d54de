// Package nn implements the small feed-forward neural network machinery
// required by the paper's DVFS policy: dense layers with ReLU hidden
// activations and a linear output, He weight initialisation, manual
// backpropagation, the Huber loss, the Adam optimizer, and a
// compact float32 wire format whose size matches the paper's reported
// 2.8 kB per federated transfer.
//
// The package is deliberately minimal — the paper's policy network is a
// single hidden layer of 32 neurons over 5 input features and 15 outputs —
// but it is a complete, generic MLP implementation: any number of layers and
// widths are supported, parameters live in one flat vector so that federated
// averaging and serialisation are trivial, and all randomness comes from a
// caller-supplied source for reproducibility.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Network is a fully connected multi-layer perceptron with ReLU activations
// on hidden layers and an identity (linear) output layer. All weights and
// biases live in a single flat parameter vector, ordered layer by layer as
// [W0, b0, W1, b1, ...] with each W stored row-major ([out][in]).
//
// A Network is not safe for concurrent use: Forward caches intermediate
// activations for a subsequent Backward call.
type Network struct {
	sizes  []int     // layer widths, including input and output
	params []float64 // flat parameter vector

	// Per-layer views into params, rebuilt whenever the backing array
	// changes (SetParams keeps the same array, so views stay valid).
	wOff, bOff []int

	// Caches for backpropagation, filled by Forward.
	acts []([]float64) // acts[0] = input copy, acts[i] = output of layer i-1
	pre  []([]float64) // pre-activation values per layer

	// delta[k] is the backward pass's scratch for dL/d(pre-activation) of
	// layer k's input width (delta[k] has sizes[k] elements, k >= 1). The
	// buffers are owned by the network so Backward/BackwardScalar allocate
	// nothing in the training hot loop.
	delta []([]float64)

	// Mini-batch scratch for the batched kernels (batch.go): flat
	// row-major [batch × width] matrices per layer, grown on demand
	// (capacity-guarded, so the batched hot loop stays allocation-free at
	// steady state). batchN is the row count the matrices are currently
	// sliced to. The inputs have no delta, so bdelta[0] is instead the
	// batched kernels' transpose scratch (kernels_amd64.go), as long as the
	// parameter vector so any layer's weight block fits; it holds nothing
	// between calls.
	bacts  []([]float64) // bacts[l]: batch × sizes[l] activations
	bpre   []([]float64) // bpre[l]: batch × sizes[l+1] pre-activations
	bdelta []([]float64) // bdelta[k]: batch × sizes[k] backward deltas, k ≥ 1
	batchN int
}

// New constructs a network with the given layer sizes (at least input and
// output) and initialises weights with He initialisation drawn from rng.
// Biases start at zero. For example, New(rng, 5, 32, 15) builds the paper's
// policy network: 5 state features, one hidden layer of 32 neurons, and one
// output per V/f level.
func New(rng *rand.Rand, sizes ...int) *Network {
	n := shaped(sizes)
	n.heInit(rng)
	return n
}

// FromParams builds a network with the given layer sizes that holds a copy
// of params, which must have exactly the sizes' parameter count. It draws
// nothing: a network that only ever runs a fixed snapshot, as a greedy
// evaluation policy does, needs no initialisation and no source of
// randomness.
func FromParams(params []float64, sizes ...int) *Network {
	n := shaped(sizes)
	n.SetParams(params)
	return n
}

// shaped allocates a network of the given layer sizes with every parameter
// zero: the flat parameter vector, its per-layer offsets and the caches.
func shaped(sizes []int) *Network {
	if len(sizes) < 2 {
		panic("nn: a network requires at least an input and an output size")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: invalid layer size %d", s))
		}
	}
	n := &Network{sizes: append([]int(nil), sizes...)}
	total := 0
	for l := 0; l < len(sizes)-1; l++ {
		n.wOff = append(n.wOff, total)
		total += sizes[l] * sizes[l+1]
		n.bOff = append(n.bOff, total)
		total += sizes[l+1]
	}
	n.params = make([]float64, total)
	n.initScratch()
	return n
}

// initScratch sizes the activation, pre-activation and backward-delta
// caches for the configured layer widths.
func (n *Network) initScratch() {
	n.acts = make([][]float64, len(n.sizes))
	n.pre = make([][]float64, len(n.sizes)-1)
	n.delta = make([][]float64, len(n.sizes))
	for i, s := range n.sizes {
		n.acts[i] = make([]float64, s)
		if i > 0 {
			n.pre[i-1] = make([]float64, s)
			n.delta[i] = make([]float64, s)
		}
	}
}

// heInit draws weights from N(0, sqrt(2/fanIn)), the standard initialisation
// for ReLU networks, and zeroes biases.
func (n *Network) heInit(rng *rand.Rand) {
	for l := 0; l < len(n.sizes)-1; l++ {
		fanIn := n.sizes[l]
		std := math.Sqrt(2 / float64(fanIn))
		w := n.weights(l)
		for i := range w {
			w[i] = rng.NormFloat64() * std
		}
		b := n.biases(l)
		for i := range b {
			b[i] = 0
		}
	}
}

// weights returns the weight view of layer l ([out][in] row-major).
func (n *Network) weights(l int) []float64 {
	return n.params[n.wOff[l] : n.wOff[l]+n.sizes[l]*n.sizes[l+1]]
}

// biases returns the bias view of layer l.
func (n *Network) biases(l int) []float64 {
	return n.params[n.bOff[l] : n.bOff[l]+n.sizes[l+1]]
}

// Sizes returns a copy of the layer sizes, including input and output.
func (n *Network) Sizes() []int { return append([]int(nil), n.sizes...) }

// NumParams returns the total number of trainable parameters. The paper's
// 5-32-15 network has 5·32+32 + 32·15+15 = 687 parameters.
func (n *Network) NumParams() int { return len(n.params) }

// Params returns the live flat parameter vector. Mutating it mutates the
// network; callers that need a snapshot should copy it.
//
// Params is the module's sanctioned privacy declassification point:
// telemetry shapes these weights through training, but the vector itself
// is the only telemetry-derived data allowed to cross the federated wire.
// The privacytaint analyzer (internal/lint) allowlists exactly this
// function — everything downstream of a Params call is clean by contract,
// and every other telemetry flow to the wire is a build-breaking finding.
func (n *Network) Params() []float64 { return n.params }

// SetParams overwrites the network parameters with p, which must have
// exactly NumParams elements. The data is copied.
func (n *Network) SetParams(p []float64) {
	if len(p) != len(n.params) {
		panic(fmt.Sprintf("nn: SetParams length %d, want %d", len(p), len(n.params)))
	}
	copy(n.params, p)
}

// Clone returns a deep copy of the network, including parameters but not the
// transient activation caches.
func (n *Network) Clone() *Network { return FromParams(n.params, n.sizes...) }

// Forward runs inference on x (length must equal the input size) and returns
// the output activations. The returned slice is owned by the network and is
// valid until the next Forward call; copy it if it must outlive that.
// Intermediate activations are cached for a subsequent Backward call.
//
// Each layer is computed four units at a time by dot4: four independent
// accumulators, each started at its unit's bias and fed strictly left to
// right like dotAcc, so every pre-activation is the same float sequence as
// the one-unit-at-a-time loop. A width that is not a multiple of four
// recomputes its last four units (the same bits again); a width below four
// runs the one-unit loop. The hidden ReLU is relu, branch-free.
// TestForwardMatchesReference and FuzzForwardMatchesReference hold the
// outputs and both caches bit-identical to that loop (a NaN's payload
// aside, which the compiler's operand order decides on either side).
//
//fedlint:allocfree
func (n *Network) Forward(x []float64) []float64 {
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
		if nout < 4 {
			// Narrower than one block: the one-unit loop itself.
			for j := range out {
				sum := b[j]
				row := w[j*nin : (j+1)*nin]
				for i, v := range in {
					sum += row[i] * v
				}
				out[j] = sum
			}
		} else {
			for j := 0; j < nout; j += 4 {
				j = min(j, nout-4) // a ragged last block recomputes units already done: the same bits again
				out[j], out[j+1], out[j+2], out[j+3] = dot4(b[j], b[j+1], b[j+2], b[j+3], w[j*nin:(j+4)*nin], in)
			}
		}
		act := n.acts[l+1]
		if l == last {
			copy(act, out) // linear output layer
		} else {
			for j, v := range out {
				act[j] = relu(v)
			}
		}
	}
	return n.acts[len(n.acts)-1]
}

// dot4 extends s0..s3 by the inner products of x with the four consecutive
// rows of w (len(w) = 4·len(x)), each accumulator fed strictly left to right
// as in dotAcc. The four chains are independent, so the loop runs at the
// multiply-add throughput instead of one add's latency per element. A leaf,
// so its loop keeps the accumulators, the row pointers and its index in
// registers with nothing spilled (`go build -gcflags=fedpower/internal/nn=-S`).
//
//fedlint:allocfree
func dot4(s0, s1, s2, s3 float64, w, x []float64) (float64, float64, float64, float64) {
	n := len(x)
	r0 := w[:n]
	r1 := w[n : 2*n]
	r1 = r1[:len(r0)] // bounds-check elimination
	r2 := w[2*n : 3*n]
	r2 = r2[:len(r0)]
	r3 := w[3*n : 4*n]
	r3 = r3[:len(r0)]
	for i, v := range x {
		s0 += r0[i] * v
		s1 += r1[i] * v
		s2 += r2[i] * v
		s3 += r3[i] * v
	}
	return s0, s1, s2, s3
}

// ForwardAction is the bandit fast path of Forward: it runs the hidden
// layers exactly as Forward does (caching activations for a subsequent
// Backward/BackwardScalar call) but evaluates only the given output unit,
// dropping the output layer from O(out·hidden) to O(hidden). The returned
// value is bit-identical to Forward(x)[action] — the same multiply-adds in
// the same order — and the backward pass never reads the output-layer
// activations, so the pairing ForwardAction/BackwardScalar is exact.
//
//fedlint:allocfree
func (n *Network) ForwardAction(x []float64, action int) float64 {
	if len(x) != n.sizes[0] {
		panic(fmt.Sprintf("nn: ForwardAction input length %d, want %d", len(x), n.sizes[0]))
	}
	last := len(n.sizes) - 2
	if action < 0 || action >= n.sizes[last+1] {
		panic(fmt.Sprintf("nn: ForwardAction action %d out of range [0,%d)", action, n.sizes[last+1]))
	}
	copy(n.acts[0], x)
	for l := 0; l < last; l++ {
		in := n.acts[l]
		out := n.pre[l]
		w := n.weights(l)
		b := n.biases(l)
		nin, nout := n.sizes[l], n.sizes[l+1]
		act := n.acts[l+1]
		for j := 0; j < nout; j++ {
			sum := b[j]
			row := w[j*nin : (j+1)*nin]
			for i, v := range in {
				sum += row[i] * v
			}
			out[j] = sum
			if sum > 0 {
				act[j] = sum
			} else {
				act[j] = 0
			}
		}
	}
	in := n.acts[last]
	nin := n.sizes[last]
	sum := n.biases(last)[action]
	row := n.weights(last)[action*nin : (action+1)*nin]
	for i, v := range in {
		sum += row[i] * v
	}
	return sum
}

// Backward backpropagates gradOut — the gradient of the loss with respect to
// the network output of the most recent Forward call — and accumulates the
// parameter gradient into grad, which must have NumParams elements. Backward
// must be preceded by a Forward call on the corresponding input; it does not
// modify the network parameters. Backward reuses network-owned scratch, so
// it performs no allocations; like Forward, it is not safe for concurrent
// use.
//
//fedlint:allocfree
func (n *Network) Backward(gradOut []float64, grad []float64) {
	nl := len(n.sizes) - 1
	if len(gradOut) != n.sizes[nl] {
		panic(fmt.Sprintf("nn: Backward gradient length %d, want %d", len(gradOut), n.sizes[nl]))
	}
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: Backward grad buffer length %d, want %d", len(grad), len(n.params)))
	}
	delta := n.delta[nl]
	copy(delta, gradOut)
	n.backprop(nl-1, delta, grad)
}

// BackwardScalar is the bandit fast path of Backward: the loss touches a
// single output unit (the taken action), so instead of backpropagating a
// one-hot gradOut vector — O(out·hidden) with a zero-skip — the output
// layer's contribution is applied directly from the scalar g = dL/d(out
// [action]), dropping the output-layer pass to O(hidden). The result is
// bit-identical to Backward with gradOut[action]=g and zeros elsewhere,
// because the surviving multiply-adds are the same operations in the same
// order. Allocation-free, like Backward.
//
//fedlint:allocfree
func (n *Network) BackwardScalar(action int, g float64, grad []float64) {
	nl := len(n.sizes) - 1
	if action < 0 || action >= n.sizes[nl] {
		panic(fmt.Sprintf("nn: BackwardScalar action %d out of range [0,%d)", action, n.sizes[nl]))
	}
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: BackwardScalar grad buffer length %d, want %d", len(grad), len(n.params)))
	}
	l := nl - 1
	in := n.acts[l]
	nin := n.sizes[l]
	if !zeroGrad(g) { // exact zero skip: a dead loss gradient contributes nothing
		grad[n.bOff[l]+action] += g
		row := grad[n.wOff[l]+action*nin : n.wOff[l]+(action+1)*nin]
		for i, v := range in {
			row[i] += g * v
		}
	}
	if l == 0 {
		return
	}
	// Propagate the single nonzero delta to the previous layer and apply
	// the ReLU derivative.
	prev := n.delta[l]
	wrow := n.weights(l)[action*nin : (action+1)*nin]
	for i := range prev {
		prev[i] = g * wrow[i]
	}
	pre := n.pre[l-1]
	for i := range prev {
		if pre[i] <= 0 {
			prev[i] = 0
		}
	}
	n.backprop(l-1, prev, grad)
}

// backprop runs the shared backward loop from layer top down to layer 0.
// delta holds dL/d(pre-activation) of layer top's output and is consumed;
// lower layers' deltas use the network-owned scratch.
func (n *Network) backprop(top int, delta []float64, grad []float64) {
	for l := top; l >= 0; l-- {
		in := n.acts[l]
		nin, nout := n.sizes[l], n.sizes[l+1]
		gw := grad[n.wOff[l] : n.wOff[l]+nin*nout]
		gb := grad[n.bOff[l] : n.bOff[l]+nout]
		for j := 0; j < nout; j++ {
			d := delta[j]
			if zeroGrad(d) { // exact zero skip: ReLU-dead units contribute nothing
				continue
			}
			gb[j] += d
			row := gw[j*nin : (j+1)*nin]
			for i, v := range in {
				row[i] += d * v
			}
		}
		if l == 0 {
			break
		}
		// Propagate to the previous layer and apply the ReLU derivative.
		w := n.weights(l)
		prev := n.delta[l]
		for i := range prev {
			prev[i] = 0
		}
		for j := 0; j < nout; j++ {
			d := delta[j]
			if zeroGrad(d) { // exact zero skip: ReLU-dead units contribute nothing
				continue
			}
			row := w[j*nin : (j+1)*nin]
			for i := range prev {
				prev[i] += d * row[i]
			}
		}
		pre := n.pre[l-1]
		for i := range prev {
			if pre[i] <= 0 {
				prev[i] = 0
			}
		}
		delta = prev
	}
}

// zeroGrad reports whether a backpropagated gradient component is exactly
// zero of either sign — the condition under which the scalar and batched
// kernels skip an accumulator update. Skipping is a pure optimisation for
// ReLU-dead units and dead loss gradients, but the skip condition itself is
// part of the bit-identity contract (adding 0.0 to -0.0 would flip the
// accumulator's sign bit), so both paths must test it identically. The test
// is written on the bit pattern — an integer comparison, agreeing with
// d == 0 on every input including -0 (true) and NaN (false) — so the
// exact-comparison contract lives in the type system rather than in a
// suppressed floateq finding.
func zeroGrad(d float64) bool { return math.Float64bits(d)<<1 == 0 }

// AverageParams overwrites dst with the element-wise mean of the given
// parameter vectors, implementing the unweighted federated-averaging step of
// Algorithm 2 (θ_{r+1} = 1/N · Σ θ_r^n). All vectors must share dst's
// length, and at least one source is required.
//
// The sum is accumulated exactly (Accum) and rounded once, so the result is
// a function of the multiset of sources only — independent of their order
// and, critically, of their grouping. A hierarchical federation that sums
// subtrees first and merges the partial sums (fed.RunTree, fed.Aggregator)
// therefore reproduces this flat mean bit-for-bit.
func AverageParams(dst []float64, srcs ...[]float64) {
	if len(srcs) == 0 {
		panic("nn: AverageParams requires at least one source")
	}
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic(fmt.Sprintf("nn: AverageParams length mismatch: %d vs %d", len(s), len(dst)))
		}
	}
	inv := 1 / float64(len(srcs))
	var acc Accum
	for i := range dst {
		acc.Reset()
		for _, s := range srcs {
			acc.Add(s[i])
		}
		dst[i] = acc.Round() * inv
	}
}
