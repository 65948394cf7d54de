package nn

import (
	"fmt"
	"math"
	"math/bits"
)

// Optimizer applies a gradient step to a flat parameter vector. Step
// consumes the gradient as-is; callers are responsible for zeroing or
// rescaling accumulated gradients between steps.
type Optimizer interface {
	// Step updates params in place given the gradient of the loss.
	Step(params, grad []float64)
	// Reset clears any internal state (moment estimates, step counters) so
	// the optimizer behaves as freshly constructed. Used when a device
	// receives a new global model at the start of a federated round.
	Reset()
}

// Adam implements the Adam optimizer (Kingma & Ba, 2015) used by the paper,
// with the standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8 defaults.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	t    int
	m, v []float64
}

// NewAdam returns an Adam optimizer with the given learning rate and the
// standard default moment decay rates.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one bias-corrected Adam update to params in place.
//
// A moment whose gradient stays exactly zero does not decay to zero: in the
// subnormal range β·(k·2⁻¹⁰⁷⁴) rounds back to k·2⁻¹⁰⁷⁴ for every k up to
// stuckCount(β), and arithmetic on such values is microcode-assisted, an
// order of magnitude slower than on normal numbers. Parameters whose first
// moment sits on one of those fixed points (a third of a policy trained for
// a day: dead ReLU units, actions no longer taken) are recognised on their bit
// patterns and skipped, because the update provably leaves m and the
// parameter as they are and reduces to v ← β₂·v (stuckSkip has the bound).
// Everything else takes the general expression, so every parameter and
// moment is bit-identical to the plain loop for every input —
// TestAdamBitIdenticalToReference and FuzzAdamStepMatchesReference compare
// against that loop, kept verbatim in the tests.
//
//fedlint:allocfree
func (a *Adam) Step(params, grad []float64) {
	if len(params) != len(grad) {
		panic(fmt.Sprintf("nn: Adam.Step length mismatch: %d vs %d", len(params), len(grad)))
	}
	if len(a.m) != len(params) {
		a.m = make([]float64, len(params))
		a.v = make([]float64, len(params))
		a.t = 0
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	k1, k2, pMin := a.stuckSkip(c1, c2)
	// Local, params-length views: no bounds checks in the loop, and the slice
	// headers are not reloaded through a after every store.
	m, v := a.m[:len(params)], a.v[:len(params)]
	for i := range params {
		g := grad[i]
		// The moment is tested first: that is false for every parameter of a
		// young optimiser, while which gradients are zero changes from batch
		// to batch and would mispredict.
		if (math.Float64bits(m[i])&^signBit)-1 < k1 && zeroGrad(g) {
			// m is ±k·2⁻¹⁰⁷⁴ with 1 ≤ k ≤ k1 and stays there. The parameter
			// stays too if v is in [0, +Inf] (so that sqrt(v̂)+ε ≥ ε) and
			// |p| is in [pMin, +Inf]; v decays unless it is stuck itself.
			vb := math.Float64bits(v[i])
			pb := math.Float64bits(params[i]) &^ signBit
			if vb <= infBits && pb-pMin <= infBits-pMin {
				if vb-1 >= k2 {
					v[i] = a.Beta2 * v[i]
				}
				continue
			}
		}
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		mhat := m[i] / c1
		vhat := v[i] / c2
		params[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
	}
}

const (
	signBit   = 1 << 63
	infBits   = 0x7FF << 52 // +Inf; the magnitude bits of every NaN are larger
	minNormal = 0x1p-1022
)

// stuckSkip returns what Step needs to skip a parameter whose gradient is
// ±0 and whose first moment is stuck: k1 and k2, the number of subnormal
// fixed points of m ← β₁·m and v ← β₂·v, and pMin, the bit pattern of the
// smallest |p| that the step cannot change. k1 = 0 switches the skip off.
//
// With |m| ≤ k1·2⁻¹⁰⁷⁴ and sqrt(v̂)+ε ≥ ε, the step fl(fl(LR·fl(m/c1))/(…))
// is at most 8·k1·2⁻¹⁰⁷⁴·LR/(c1·ε): a correctly rounded result is monotone
// in its operands and never more than twice the exact one, in the subnormal
// range too. r below is LR/(c1·ε) to within two roundings of normal numbers,
// so with r < 2^(e+1) and k1 < 2^j the step is below 2^(e+j−1069), which is
// no more than half the gap to the nearest neighbour of any normal p with
// |p| ≥ 2^(e+j−1015): p − step rounds to p. In biased exponents that is
// exp(r) + j − 1015. For this to hold the hyperparameters must be in their
// ordinary ranges — both β in (½, 1), c1 and c2 in (0, 1], LR and r normal
// (hence ε > 0) — and anything else keeps the general expression for every
// parameter.
func (a *Adam) stuckSkip(c1, c2 float64) (k1, k2, pMin uint64) {
	k1, k2 = stuckCount(a.Beta1), stuckCount(a.Beta2)
	r := a.LR / c1 / a.Eps
	if k1 == 0 || k2 == 0 || !(c1 > 0 && c1 <= 1 && c2 > 0 && c2 <= 1) ||
		!(a.LR >= minNormal && r >= minNormal && r <= math.MaxFloat64) {
		return 0, 0, 0
	}
	exp := int(math.Float64bits(r)>>52) + bits.Len64(k1) - 1015
	return k1, k2, uint64(max(exp, 1)) << 52
}

// stuckCount returns the K for which x = k·2⁻¹⁰⁷⁴ satisfies fl(beta·x) = x
// exactly when 1 ≤ k ≤ K: 5 for β = 0.9 and 499 for β = 0.999, 0 unless
// ½ < β < 1. A product in the subnormal range is rounded to a multiple of
// 2⁻¹⁰⁷⁴, ties to even, so with d = 1 − β, which is exact for β ≥ ½, k is a
// fixed point when d·k ≤ ½ (a tie needs d = 2⁻ʲ and k = 2ʲ⁻¹, which is even
// and wins it). That set is an interval from 1, its end is at most one off
// ⌊½/d⌋, and the sign of a fused d·k − ½ is exact — no subnormal is touched
// to find it.
func stuckCount(beta float64) uint64 {
	if !(beta > 0.5 && beta < 1) {
		return 0
	}
	d := 1 - beta
	k := uint64(0.5/d) + 1
	for math.FMA(d, float64(k), -0.5) > 0 {
		k--
	}
	return k
}

// Reset clears the moment estimates and step counter.
func (a *Adam) Reset() {
	a.m, a.v, a.t = nil, nil, 0
}
