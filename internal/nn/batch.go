package nn

import (
	"fmt"
	"math"
)

// Batched mini-batch kernels.
//
// The training hot path of Algorithm 1 evaluates and backpropagates one
// mini-batch of (state, action, reward) samples per update. The scalar
// kernels (ForwardAction / BackwardScalar) stream the full weight and
// gradient vectors through the cache once per *sample*; the batched kernels
// in this file pack the sampled states into a network-owned flat
// [batch × in] matrix and restructure the loops so each weight row and each
// gradient accumulator row is streamed once per *block of samples* instead.
//
// The restructuring is bit-identical to running the scalar kernels sample
// by sample — an exact-equality contract, not a tolerance — because it
// only permutes work between independent accumulators:
//
//   - every dot product keeps a single accumulator fed strictly left to
//     right in index order (dotAcc), exactly the scalar path's
//     `sum += row[i] * x[i]` sequence, merely unrolled;
//   - distinct (sample, unit) sums are independent, so the (sample, unit)
//     loop nest can be reordered and blocked freely;
//   - every gradient accumulator cell receives exactly one contribution
//     per sample, and the batched backward visits samples in ascending
//     order within each cell's accumulation loop, so each cell sees the
//     same float additions in the same order as the scalar path (which
//     iterates samples outermost);
//   - the exact-zero skips (zeroGrad) are evaluated on the same values
//     with the same predicate as the scalar path.
//
// The three loops that carry most of an update — the hidden-layer
// forward, the delta seeding below the output layer and the hidden-layer
// gradient — are the kernels of kernels.go. On amd64 they run as SSE2
// assembly that computes the same bits (kernels_amd64.go says why); there
// a skip is a select of −0, which leaves the accumulator exactly as
// skipping it does.
//
// Bit-identical means the same bits, zeros' signs included, except for
// which NaN payload survives where two NaNs meet: that is the compiler's
// operand order for a commutative operation, which differs between
// dotAcc's unrolled body and the scalar loop, so a NaN input may come out
// as a different NaN on the two paths.
//
// TestForwardBackwardBatchBitIdentical pins the contract — bits compared,
// NaNs by class — across random nets, widths (including zero hidden
// layers) and batch sizes, with zero parameters, zero loss gradients and
// gradient-buffer cells of either sign and NaN/±Inf states;
// TestBatchKernelsMatchGeneric and FuzzBatchKernelsMatchGeneric hold the
// assembly to the portable kernels the same way. The allocfree effect
// analyzer (internal/lint) proves the kernels below never allocate outside
// the capacity-guarded scratch growth, and takes the assembly's own
// //fedlint:allocfree declarations on trust.

// ensureBatch sizes the batch scratch matrices for the given row count.
// Growth is capacity-guarded so a steady-state training loop — fixed batch
// size after the first update — performs no allocations here.
func (n *Network) ensureBatch(batch int) {
	if len(n.bacts) != len(n.sizes) {
		n.bacts = make([][]float64, len(n.sizes))
		n.bpre = make([][]float64, len(n.sizes)-1)
		n.bdelta = make([][]float64, len(n.sizes))
		n.bdelta[0] = make([]float64, len(n.params)) // the transpose scratch (Network)
	}
	for l, s := range n.sizes {
		need := batch * s
		if cap(n.bacts[l]) < need {
			n.bacts[l] = make([]float64, need)
		}
		n.bacts[l] = n.bacts[l][:need]
		if l > 0 {
			if cap(n.bpre[l-1]) < need {
				n.bpre[l-1] = make([]float64, need)
			}
			n.bpre[l-1] = n.bpre[l-1][:need]
			if cap(n.bdelta[l]) < need {
				n.bdelta[l] = make([]float64, need)
			}
			n.bdelta[l] = n.bdelta[l][:need]
		}
	}
	n.batchN = batch
}

// BatchStates returns the network-owned input matrix for a batch-sized
// forward pass: a flat row-major [batch × in] buffer the caller fills with
// one state per row (replay.Buffer.SampleInto packs it directly) before
// calling ForwardBatch. The buffer is reused across calls; its previous
// contents are unspecified.
//
//fedlint:allocfree
func (n *Network) BatchStates(batch int) []float64 {
	if batch <= 0 {
		panic(fmt.Sprintf("nn: BatchStates batch %d must be positive", batch))
	}
	n.ensureBatch(batch)
	return n.bacts[0]
}

// relu returns v if v > 0 and +0 otherwise — exactly the scalar kernels'
// `if v > 0 { act = v } else { act = 0 }`, with the same predicate (NaN and
// -0 both map to +0). Selecting through a bit mask compiles branch-free
// (UCOMISD + CMOV on amd64), so the data-random dead/alive pattern of
// hidden units cannot stall the batched loops on branch mispredictions.
func relu(v float64) float64 {
	m := uint64(0)
	if v > 0 {
		m = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & m)
}

// reluMask returns d if pre > 0 and +0 otherwise — the scalar backward
// kernels' ReLU-derivative mask `if pre <= 0 { d = 0 }`, with the same
// predicate (a NaN pre keeps d, as in the scalar path), compiled branch-free
// like relu.
func reluMask(d, pre float64) float64 {
	m := ^uint64(0)
	if pre <= 0 {
		m = 0
	}
	return math.Float64frombits(math.Float64bits(d) & m)
}

// dotAcc extends sum by the inner product of row and x, feeding a single
// accumulator strictly left to right in index order — the same float
// operation sequence as the scalar kernels' `sum += row[i] * x[i]` range
// loop, 4-way unrolled. The explicit re-slice of row to x's length lets
// the compiler drop the bounds checks inside the unrolled body.
func dotAcc(sum float64, row, x []float64) float64 {
	row = row[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		sum += row[i] * x[i]
		sum += row[i+1] * x[i+1]
		sum += row[i+2] * x[i+2]
		sum += row[i+3] * x[i+3]
	}
	for ; i < len(x); i++ {
		sum += row[i] * x[i]
	}
	return sum
}

// axpy adds a·x[i] into y[i] element-wise. Each y[i] is an independent
// accumulator receiving exactly one addition, so the unrolling cannot
// reorder any accumulation sequence; the result is bit-identical to the
// scalar kernels' `y[i] += a * x[i]` range loop.
func axpy(a float64, x, y []float64) {
	x = x[:len(y)]
	i := 0
	for ; i+4 <= len(y); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(y); i++ {
		y[i] += a * x[i]
	}
}

// ForwardBatch runs the bandit forward pass over the whole mini-batch
// packed into the BatchStates matrix: the hidden layers as matrix loops
// (forwardHidden: SSE2 on amd64, kernels.go elsewhere), and — because the
// bandit loss touches one output unit per sample — only the taken action's
// output unit per row, written to outs[s].
//
// outs[s] is bit-identical to ForwardAction(states[s], actions[s]), and
// the cached batch activations feed a subsequent BackwardBatch exactly as
// the scalar caches feed BackwardScalar. len(actions) must equal the
// BatchStates row count; len(outs) must equal len(actions).
//
//fedlint:allocfree
func (n *Network) ForwardBatch(actions []int, outs []float64) {
	batch := len(actions)
	if batch == 0 || batch != n.batchN {
		panic(fmt.Sprintf("nn: ForwardBatch batch %d, want the BatchStates size %d", batch, n.batchN))
	}
	if len(outs) != batch {
		panic(fmt.Sprintf("nn: ForwardBatch outs length %d, want %d", len(outs), batch))
	}
	last := len(n.sizes) - 2
	nact := n.sizes[last+1]
	for s, a := range actions {
		if a < 0 || a >= nact {
			panic(fmt.Sprintf("nn: ForwardBatch action %d (sample %d) out of range [0,%d)", a, s, nact))
		}
	}
	for l := 0; l < last; l++ {
		forwardHidden(n.sizes[l], n.weights(l), n.biases(l), n.bacts[l], n.bpre[l], n.bacts[l+1], n.bdelta[0])
	}
	n.forwardOutput(actions, outs)
}

// forwardOutput is ForwardBatch's output layer, on checked arguments.
func (n *Network) forwardOutput(actions []int, outs []float64) {
	batch := len(actions)
	last := len(n.sizes) - 2
	in := n.bacts[last]
	nin := n.sizes[last]
	w := n.weights(last)
	b := n.biases(last)
	// Output layer: the bandit loss touches one unit per sample, so this is
	// a gather of per-sample dot products rather than a matrix product. Four
	// samples per iteration keeps four independent accumulator chains in
	// flight — each chain is the scalar kernel's left-to-right dot product,
	// so the interleave changes no accumulation order.
	s := 0
	for ; s+4 <= batch; s += 4 {
		a0, a1, a2, a3 := actions[s], actions[s+1], actions[s+2], actions[s+3]
		x0 := in[s*nin : (s+1)*nin]
		x1 := in[(s+1)*nin : (s+2)*nin]
		x1 = x1[:len(x0)] // bounds-check elimination
		x2 := in[(s+2)*nin : (s+3)*nin]
		x2 = x2[:len(x0)]
		x3 := in[(s+3)*nin : (s+4)*nin]
		x3 = x3[:len(x0)]
		r0 := w[a0*nin : (a0+1)*nin]
		r0 = r0[:len(x0)]
		r1 := w[a1*nin : (a1+1)*nin]
		r1 = r1[:len(x0)]
		r2 := w[a2*nin : (a2+1)*nin]
		r2 = r2[:len(x0)]
		r3 := w[a3*nin : (a3+1)*nin]
		r3 = r3[:len(x0)]
		sum0, sum1, sum2, sum3 := b[a0], b[a1], b[a2], b[a3]
		for i := range x0 {
			sum0 += r0[i] * x0[i]
			sum1 += r1[i] * x1[i]
			sum2 += r2[i] * x2[i]
			sum3 += r3[i] * x3[i]
		}
		outs[s] = sum0
		outs[s+1] = sum1
		outs[s+2] = sum2
		outs[s+3] = sum3
	}
	for ; s < batch; s++ {
		a := actions[s]
		outs[s] = dotAcc(b[a], w[a*nin:(a+1)*nin], in[s*nin:(s+1)*nin])
	}
}

// BackwardBatch backpropagates the whole mini-batch of scalar loss
// gradients gs — gs[s] = dL/d(out[actions[s]]) for sample s of the most
// recent ForwardBatch — and accumulates the parameter gradient into grad.
//
// Every gradient accumulator cell is accumulated over samples in ascending
// sample order, so grad ends bit-identical to calling
// BackwardScalar(actions[s], gs[s], grad) after ForwardAction, for
// s = 0..batch-1 in order: each cell receives the same additions in the
// same sequence, and the exact-zero skips are evaluated on the same values
// (see the package comment at the top of this file). Like the scalar path,
// BackwardBatch does not modify the network parameters and reuses
// network-owned scratch.
//
//fedlint:allocfree
func (n *Network) BackwardBatch(actions []int, gs, grad []float64) {
	batch := len(actions)
	if batch == 0 || batch != n.batchN {
		panic(fmt.Sprintf("nn: BackwardBatch batch %d, want the BatchStates size %d", batch, n.batchN))
	}
	if len(gs) != batch {
		panic(fmt.Sprintf("nn: BackwardBatch gradient count %d, want %d", len(gs), batch))
	}
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: BackwardBatch grad buffer length %d, want %d", len(grad), len(n.params)))
	}
	nl := len(n.sizes) - 1
	nact := n.sizes[nl]
	for s, a := range actions {
		if a < 0 || a >= nact {
			panic(fmt.Sprintf("nn: BackwardBatch action %d (sample %d) out of range [0,%d)", a, s, nact))
		}
	}
	n.backwardOutput(actions, gs, grad)
	l := nl - 1
	if l == 0 {
		return
	}
	seedDelta(n.sizes[l], n.weights(l), gs, actions, n.bpre[l-1], n.bdelta[l])
	n.backpropBatch(batch, l-1, grad)
}

// backwardOutput is BackwardBatch's output layer, on checked arguments.
func (n *Network) backwardOutput(actions []int, gs, grad []float64) {
	l := len(n.sizes) - 2
	nin, nact := n.sizes[l], n.sizes[l+1]
	in := n.bacts[l]
	// Output layer: one touched unit per sample, accumulated in sample
	// order. Cells of different actions are disjoint; same-action samples
	// hit their shared row in ascending s — the scalar path's order.
	gw := grad[n.wOff[l] : n.wOff[l]+nin*nact]
	gb := grad[n.bOff[l] : n.bOff[l]+nact]
	for s, g := range gs {
		if !zeroGrad(g) { // exact zero skip: a dead loss gradient contributes nothing
			a := actions[s]
			gb[a] += g
			axpy(g, in[s*nin:(s+1)*nin], gw[a*nin:(a+1)*nin])
		}
	}
}

// backpropBatch runs the batched shared backward loop from layer top down
// to layer 0, consuming the delta matrix seeded in n.bdelta[top+1]. It is
// the batched mirror of backprop: every gradient accumulator cell receives
// its per-sample contributions in ascending sample order (gradHidden), and
// the propagated delta matrix accumulates its (sample, i) cells over source
// units j in ascending j — the scalar loop's order within each sample.
func (n *Network) backpropBatch(batch, top int, grad []float64) {
	for l := top; l >= 0; l-- {
		nin, nout := n.sizes[l], n.sizes[l+1]
		in := n.bacts[l]
		delta := n.bdelta[l+1]
		gw := grad[n.wOff[l] : n.wOff[l]+nin*nout]
		gb := grad[n.bOff[l] : n.bOff[l]+nout]
		gradHidden(nin, delta, in, gw, gb, n.bdelta[0])
		if l == 0 {
			return
		}
		n.propagateBatch(batch, l)
	}
}

// propagateBatch computes layer l's input deltas n.bdelta[l] from its
// output deltas n.bdelta[l+1]: the weights' transpose applied per sample,
// each (sample, i) cell accumulated over source units j in ascending j,
// then masked by the ReLU derivative of layer l-1. Delta rows are
// outermost so each weight row streams once per mini-batch and the
// accumulating delta cells sit a whole sample loop apart.
func (n *Network) propagateBatch(batch, l int) {
	nin, nout := n.sizes[l], n.sizes[l+1]
	delta := n.bdelta[l+1]
	prev := n.bdelta[l]
	for i := range prev {
		prev[i] = 0
	}
	w := n.weights(l)
	for j := 0; j < nout; j++ {
		wrow := w[j*nin : (j+1)*nin]
		for s := 0; s < batch; s++ {
			d := delta[s*nout+j]
			if zeroGrad(d) { // exact zero skip: ReLU-dead units contribute nothing
				continue
			}
			axpy(d, wrow, prev[s*nin:(s+1)*nin])
		}
	}
	pre := n.bpre[l-1]
	pre = pre[:len(prev)] // bounds-check elimination
	for i := range prev {
		prev[i] = reluMask(prev[i], pre[i])
	}
}
