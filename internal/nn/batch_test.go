package nn

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// scalarReference runs the per-sample kernels over the mini-batch exactly
// as the scalar Update path does — ForwardAction then BackwardScalar per
// sample, in sample order — returning the outputs and the gradient
// accumulated onto a copy of grad0.
func scalarReference(n *Network, states []float64, actions []int, gs, grad0 []float64) (outs, grad []float64) {
	batch := len(actions)
	dim := n.sizes[0]
	outs = make([]float64, batch)
	grad = append([]float64(nil), grad0...)
	for s := 0; s < batch; s++ {
		x := states[s*dim : (s+1)*dim]
		outs[s] = n.ForwardAction(x, actions[s])
		n.BackwardScalar(actions[s], gs[s], grad)
	}
	return outs, grad
}

// batchCase fills a batch-sized problem: states biased negative often
// enough that ReLU-dead units are common, random actions, and loss
// gradients with a sprinkling of exact zeros of either sign (a sample whose
// prediction hits its target exactly has a dead Huber gradient). It also
// turns about one parameter in eight into a zero of either sign, so dead
// weights and -0 pre-activations occur. With edges set, about one state
// value in sixteen becomes a NaN, ±Inf or an extreme finite value.
func batchCase(rng *rand.Rand, n *Network, batch int, edges bool) (states []float64, actions []int, gs []float64) {
	for i := range n.params {
		if rng.Intn(8) == 0 {
			n.params[i] = signedZero(rng)
		}
	}
	states = n.BatchStates(batch)
	for i := range states {
		// Mean-shifted inputs: with He-initialised weights and zero
		// biases this leaves roughly half the hidden units dead.
		states[i] = rng.NormFloat64() - 0.5
		if edges && rng.Intn(16) == 0 {
			states[i] = batchEdgeValues[rng.Intn(len(batchEdgeValues))]
		}
	}
	actions = make([]int, batch)
	gs = make([]float64, batch)
	nact := n.sizes[len(n.sizes)-1]
	for s := range actions {
		actions[s] = rng.Intn(nact)
		switch rng.Intn(4) {
		case 0:
			gs[s] = signedZero(rng) // dead loss gradient: prediction == target
		default:
			gs[s] = rng.NormFloat64()
		}
	}
	return states, actions, gs
}

// batchEdgeValues are the non-ordinary state values batchCase sprinkles in.
var batchEdgeValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// signedZero returns +0 or -0 with equal probability.
func signedZero(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return math.Copysign(0, -1)
	}
	return 0
}

// sameFloat reports whether got and want have the same bits, or are both
// NaN: which NaN payload survives where two NaNs meet is the compiler's
// operand order, on either side (see batch.go).
func sameFloat(got, want float64) bool {
	if math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// assertBatchMatchesScalar checks ForwardBatch/BackwardBatch against the
// per-sample reference bit for bit — the sign of every zero included, NaNs
// by class — with no tolerances. Both accumulate onto the same incoming
// gradient buffer, whose odd cells are -0: a cell that receives a +0
// contribution the other side skips reads +0 instead of -0.
func assertBatchMatchesScalar(t *testing.T, trial int, n *Network, batch int, states []float64, actions []int, gs []float64) {
	t.Helper()
	grad0 := make([]float64, n.NumParams())
	for i := 1; i < len(grad0); i += 2 {
		grad0[i] = math.Copysign(0, -1)
	}
	ref := n.Clone()
	wantOuts, wantGrad := scalarReference(ref, states, actions, gs, grad0)

	outs := make([]float64, batch)
	grad := append([]float64(nil), grad0...)
	n.ForwardBatch(actions, outs)
	n.BackwardBatch(actions, gs, grad)

	for s := range outs {
		if !sameFloat(outs[s], wantOuts[s]) {
			t.Fatalf("trial %d batch %d: outs[%d] = %v (%#016x) batched, %v (%#016x) scalar",
				trial, batch, s, outs[s], math.Float64bits(outs[s]), wantOuts[s], math.Float64bits(wantOuts[s]))
		}
	}
	for i := range grad {
		if !sameFloat(grad[i], wantGrad[i]) {
			t.Fatalf("trial %d batch %d: grad[%d] = %v (%#016x) batched, %v (%#016x) scalar",
				trial, batch, i, grad[i], math.Float64bits(grad[i]), wantGrad[i], math.Float64bits(wantGrad[i]))
		}
	}
}

// TestForwardBackwardBatchBitIdentical: the batched kernels must reproduce
// the per-sample scalar kernels bit for bit — the same bits on every
// output and every gradient component, NaNs by class — across random nets
// (including zero-hidden-layer shapes), batch sizes spanning one sample to
// beyond a whole cache block, ReLU-dead units, zero parameters and
// zero-loss-gradient samples of either sign, a gradient buffer that
// arrives holding -0, and, in every fourth trial, NaN, ±Inf and extreme
// states. Part of the determinism replay gate (-count=2).
func TestForwardBackwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := randNet(rng)
		for _, batch := range []int{1, 7, 128} {
			states, actions, gs := batchCase(rng, n, batch, trial%4 == 3)
			assertBatchMatchesScalar(t, trial, n, batch, states, actions, gs)
		}
	}
}

// TestReplayCapacityBatchBitIdentical covers the largest batch the
// training loop can request — a full replay buffer (the paper's C = 4000)
// — on the paper's 5-32-15 network and a deeper shape.
func TestReplayCapacityBatchBitIdentical(t *testing.T) {
	const replayCapacity = 4000
	rng := rand.New(rand.NewSource(8))
	for trial, sizes := range [][]int{{5, 32, 15}, {4, 16, 16, 9}, {3, 6}} {
		n := New(rng, sizes...)
		states, actions, gs := batchCase(rng, n, replayCapacity, false)
		assertBatchMatchesScalar(t, trial, n, replayCapacity, states, actions, gs)
	}
}

// TestBatchScratchReuse: shrinking and regrowing the batch size must
// re-slice the scratch matrices correctly — stale rows of a larger earlier
// batch must not leak into a smaller later one.
func TestBatchScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := New(rng, 5, 32, 15)
	for trial, batch := range []int{128, 7, 1, 128, 33} {
		states, actions, gs := batchCase(rng, n, batch, false)
		assertBatchMatchesScalar(t, trial, n, batch, states, actions, gs)
	}
}

// TestBatchAllocationFree pins the hot-loop guarantee for the batched
// kernels: once the scratch has grown to the batch size, packing, forward
// and backward allocate nothing.
func TestBatchAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := New(rng, 5, 32, 15)
	const batch = 128
	states, actions, gs := batchCase(rng, n, batch, false)
	outs := make([]float64, batch)
	grad := make([]float64, n.NumParams())
	if avg := testing.AllocsPerRun(100, func() {
		buf := n.BatchStates(batch)
		copy(buf, states)
		n.ForwardBatch(actions, outs)
		n.BackwardBatch(actions, gs, grad)
	}); avg != 0 {
		t.Errorf("BatchStates+ForwardBatch+BackwardBatch allocates %.1f times per call, want 0", avg)
	}
}

// updateMACs counts the multiply-adds of one ForwardBatch + BackwardBatch
// over batch samples on a network of the given sizes, dead units included:
// every hidden layer's dot products and gradient rows, the propagation
// below the first hidden layer, and for the output layer the taken unit's
// dot, its gradient row and the delta row seeded from its weights.
func updateMACs(sizes []int, batch int) int {
	nl := len(sizes) - 1
	m := 3 * sizes[nl-1]
	for l := 0; l < nl-1; l++ {
		m += 2 * sizes[l] * sizes[l+1]
		if l > 0 {
			m += sizes[l] * sizes[l+1]
		}
	}
	return batch * m
}

var rooflineSink float64

// macStream runs reps passes of four independent accumulators over w·x,
// each fed strictly left to right: the fastest a multiply-add chain under
// the kernels' summation-order contract runs.
func macStream(w, x []float64, reps int) float64 {
	var s0, s1, s2, s3 float64
	x = x[:len(w)]
	for r := 0; r < reps; r++ {
		for i := 0; i+4 <= len(w); i += 4 {
			s0 += w[i] * x[i]
			s1 += w[i+1] * x[i+1]
			s2 += w[i+2] * x[i+2]
			s3 += w[i+3] * x[i+3]
		}
	}
	return s0 + s1 + s2 + s3
}

// BenchmarkUpdateRoofline measures the headroom left in the policy
// update's kernels: ForwardBatch + BackwardBatch at the paper's 5-32-15
// and batch 128 on device-like (non-negative) states, the same update on
// the portable kernels (batchGeneric), and macStream over the same number
// of multiply-adds from L1, all three alternated within every iteration so
// host drift hits them alike. It reports each one's ns/MAC, asm/stream
// and generic/stream — how far each update sits above a plain
// multiply-add stream — and generic/asm, the packed kernels' gain in one
// binary, which host phase and code layout cannot move (EXPERIMENTS.md
// "Performance"). Off amd64 both updates run the same code.
//
//	go test -run '^$' -bench UpdateRoofline -count 6 ./internal/nn
func BenchmarkUpdateRoofline(b *testing.B) {
	const batch = 128
	rng := rand.New(rand.NewSource(12))
	n := New(rng, 5, 32, 15)
	states := n.BatchStates(batch)
	for i := range states {
		states[i] = rng.Float64()
	}
	actions := make([]int, batch)
	gs := make([]float64, batch)
	for s := range actions {
		actions[s] = rng.Intn(15)
		gs[s] = rng.NormFloat64() / batch
	}
	outs := make([]float64, batch)
	grad := make([]float64, n.NumParams())
	ggrad := make([]float64, n.NumParams())
	macs := updateMACs(n.sizes, batch)
	w := make([]float64, macs/batch)
	x := make([]float64, len(w))
	for i := range w {
		w[i], x[i] = rng.Float64(), rng.Float64()
	}
	var kernels, generic, stream time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		n.ForwardBatch(actions, outs)
		n.BackwardBatch(actions, gs, grad)
		t1 := time.Now()
		rooflineSink += macStream(w, x, batch)
		t2 := time.Now()
		batchGeneric(n, actions, outs, gs, ggrad)
		generic += time.Since(t2)
		stream += t2.Sub(t1)
		kernels += t1.Sub(t0)
	}
	total := float64(b.N) * float64(macs)
	b.ReportMetric(float64(kernels.Nanoseconds())/total, "asm-ns/MAC")
	b.ReportMetric(float64(generic.Nanoseconds())/total, "generic-ns/MAC")
	b.ReportMetric(float64(stream.Nanoseconds())/total, "stream-ns/MAC")
	b.ReportMetric(float64(kernels)/float64(stream), "asm/stream")
	b.ReportMetric(float64(generic)/float64(stream), "generic/stream")
	b.ReportMetric(float64(generic)/float64(kernels), "generic/asm")
}
