package nn

import (
	"fmt"
	"math"
	"testing"
)

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction, the first Adam step has magnitude ≈ lr for any
	// non-zero gradient.
	opt := NewAdam(0.01)
	params := []float64{5}
	opt.Step(params, []float64{123})
	if math.Abs((5-params[0])-0.01) > 1e-6 {
		t.Fatalf("first Adam step moved %v, want ~0.01", 5-params[0])
	}
	// ... and points against the gradient sign.
	opt2 := NewAdam(0.01)
	params2 := []float64{5}
	opt2.Step(params2, []float64{-123})
	if params2[0] <= 5 {
		t.Fatalf("Adam moved with the gradient, not against it")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise f(x) = (x - 3)²; gradient 2(x-3).
	opt := NewAdam(0.1)
	params := []float64{-4}
	for i := 0; i < 500; i++ {
		opt.Step(params, []float64{2 * (params[0] - 3)})
	}
	if math.Abs(params[0]-3) > 0.01 {
		t.Fatalf("Adam did not converge: x = %v, want 3", params[0])
	}
}

func TestAdamReset(t *testing.T) {
	opt := NewAdam(0.01)
	a := []float64{1}
	opt.Step(a, []float64{1})
	firstMove := 1 - a[0]
	opt.Reset()
	b := []float64{1}
	opt.Step(b, []float64{1})
	if math.Abs((1-b[0])-firstMove) > 1e-12 {
		t.Fatalf("reset Adam first step %v != fresh first step %v", 1-b[0], firstMove)
	}
}

func TestAdamLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Adam.Step length mismatch did not panic")
		}
	}()
	NewAdam(0.01).Step([]float64{1, 2}, []float64{1})
}

func TestAdamDefaults(t *testing.T) {
	opt := NewAdam(0.005)
	if opt.Beta1 != 0.9 || opt.Beta2 != 0.999 || opt.Eps != 1e-8 {
		t.Fatalf("Adam defaults: β1=%v β2=%v ε=%v", opt.Beta1, opt.Beta2, opt.Eps)
	}
	if opt.LR != 0.005 {
		t.Fatalf("Adam LR = %v, want 0.005 (Table I)", opt.LR)
	}
}

func TestTrainNetworkOnRegression(t *testing.T) {
	// End-to-end: a 1-8-1 network trained with Adam should fit y = 2x - 1
	// on [0, 1] to small error.
	rng := newTestRand()
	n := New(rng, 1, 8, 1)
	opt := NewAdam(0.01)
	grad := make([]float64, n.NumParams())
	for epoch := 0; epoch < 3000; epoch++ {
		x := rng.Float64()
		y := 2*x - 1
		out := n.Forward([]float64{x})
		g := out[0] - y // gradient of the squared error ½(out−y)²
		for i := range grad {
			grad[i] = 0
		}
		n.Backward([]float64{g}, grad)
		opt.Step(n.Params(), grad)
	}
	worst := 0.0
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got := n.Forward([]float64{x})[0]
		want := 2*x - 1
		if d := math.Abs(got - want); d > worst {
			worst = d
		}
	}
	if worst > 0.1 {
		t.Fatalf("regression fit worst-case error %v, want < 0.1", worst)
	}
}

// adamStepReference is Adam.Step as it was before the stuck-moment skip: the
// plain loop, kept verbatim. Step must leave every parameter and moment
// bit-identical to it for every input.
func adamStepReference(a *Adam, params, grad []float64) {
	if len(a.m) != len(params) {
		a.m = make([]float64, len(params))
		a.v = make([]float64, len(params))
		a.t = 0
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range params {
		g := grad[i]
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g*g
		mhat := a.m[i] / c1
		vhat := a.v[i] / c2
		params[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
	}
}

// adamPair drives one optimiser through Adam.Step and a copy of it through
// adamStepReference, on copies of the same parameters.
type adamPair struct {
	got, want   *Adam
	gotP, wantP []float64
}

func newAdamPair(a Adam, params []float64) *adamPair {
	got, want := a, a
	got.m, got.v = append([]float64(nil), a.m...), append([]float64(nil), a.v...)
	want.m, want.v = append([]float64(nil), a.m...), append([]float64(nil), a.v...)
	return &adamPair{
		got: &got, want: &want,
		gotP:  append([]float64(nil), params...),
		wantP: append([]float64(nil), params...),
	}
}

// step applies grad on both sides and returns a description of the first
// bit that differs, or "".
func (ap *adamPair) step(grad []float64) string {
	ap.got.Step(ap.gotP, grad)
	adamStepReference(ap.want, ap.wantP, grad)
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"param", ap.gotP, ap.wantP}, {"m", ap.got.m, ap.want.m}, {"v", ap.got.v, ap.want.v}} {
		for i := range c.want {
			if g, w := math.Float64bits(c.got[i]), math.Float64bits(c.want[i]); g != w {
				return fmt.Sprintf("t=%d %s[%d] = %#016x (%g), reference %#016x (%g)",
					ap.want.t, c.name, i, g, c.got[i], w, c.want[i])
			}
		}
	}
	return ""
}

// stuck counts the first moments sitting on a subnormal fixed point.
func (ap *adamPair) stuck() int {
	n, k1 := 0, stuckCount(ap.got.Beta1)
	for _, m := range ap.got.m {
		if (math.Float64bits(m)&^signBit)-1 < k1 {
			n++
		}
	}
	return n
}

// adamEdgeParams are parameter values on both sides of every test the skip
// makes: ordinary, ±0, subnormal, just below and above pMin, ±Inf, and a
// quiet and a signalling NaN (arithmetic would quiet the second).
var adamEdgeParams = []float64{
	1, -3.5, 0.02, 0, math.Copysign(0, -1), 5e-324, -1e-310, minNormal, -1e-305, 1e-300, -1e-299,
	1e-296, 1e-290, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(infBits | 1), 1e-3,
}

func TestStuckCount(t *testing.T) {
	sub := func(k uint64) float64 { return math.Float64frombits(k) }
	for _, beta := range []float64{
		0.9, 0.999, 0.99, 0.75, 0.875, 0.6, 0.5000000000000001, 0.95, 0.9999, 1 - 0x1p-30, 1 - 0x1p-53,
	} {
		k := stuckCount(beta)
		if k == 0 {
			t.Errorf("stuckCount(%v) = 0, want at least 1", beta)
			continue
		}
		for _, j := range []uint64{1, (k + 1) / 2, k - 1, k} {
			if j >= 1 && math.Float64bits(beta*sub(j)) != j {
				t.Errorf("β=%v: stuckCount %d, but %d·2⁻¹⁰⁷⁴ is not a fixed point", beta, k, j)
			}
		}
		for _, j := range []uint64{k + 1, k + 2, 2*k + 1} {
			if math.Float64bits(beta*sub(j)) == j {
				t.Errorf("β=%v: stuckCount %d, but %d·2⁻¹⁰⁷⁴ is a fixed point too", beta, k, j)
			}
		}
	}
	if k1, k2 := stuckCount(0.9), stuckCount(0.999); k1 != 5 || k2 != 499 {
		t.Errorf("stuckCount(0.9), stuckCount(0.999) = %d, %d, want 5, 499", k1, k2)
	}
	for _, beta := range []float64{0, 0.5, 0.3, 1, 1.5, -0.9, math.NaN(), math.Inf(1)} {
		if k := stuckCount(beta); k != 0 {
			t.Errorf("stuckCount(%v) = %d, want 0", beta, k)
		}
	}
}

// TestAdamBitIdenticalToReference runs Step against the plain loop through
// the whole life of a moment — gradients, a zero-gradient decay long enough
// to reach the fixed points, gradients returning, decay again — and
// compares params, m and v bit for bit after every step.
func TestAdamBitIdenticalToReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		beta1, eps float64
		decay      int // zero-gradient steps; enough to reach the fixed points
		wantStuck  bool
	}{
		{"beta1=0.9", 0.9, 1e-8, 8000, true},
		{"beta1=0.99", 0.99, 1e-8, 80000, true},
		{"beta1=0.5", 0.5, 1e-8, 1500, false}, // no fixed points: m reaches 0
		{"eps=0", 0.9, 0, 8000, true},         // stuck, but nothing may be skipped
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := newTestRand()
			n := len(adamEdgeParams)
			ap := newAdamPair(Adam{LR: 0.005, Beta1: tc.beta1, Beta2: 0.999, Eps: tc.eps}, adamEdgeParams)
			grad := make([]float64, n)
			run := func(phase string, steps int, fill func(i int) float64) {
				t.Helper()
				for s := 0; s < steps; s++ {
					for i := range grad {
						grad[i] = fill(i)
					}
					if diff := ap.step(grad); diff != "" {
						t.Fatalf("%s: %s", phase, diff)
					}
				}
			}
			signedZero := func(i int) float64 { return math.Copysign(0, float64(i%2)-0.5) }
			run("warm-up", 40, func(int) float64 { return rng.NormFloat64() })
			run("decay", tc.decay, signedZero)
			if got := ap.stuck(); tc.wantStuck && got < n/2 {
				t.Fatalf("only %d of %d first moments are stuck after %d zero-gradient steps; the test would pass vacuously",
					got, n, tc.decay)
			} else if !tc.wantStuck && got != 0 {
				t.Fatalf("%d first moments stuck, want none for β₁ = %v", got, tc.beta1)
			}
			// The warm-up moved every parameter to an ordinary value; put the
			// edge values under the stuck moments.
			copy(ap.gotP, adamEdgeParams)
			copy(ap.wantP, adamEdgeParams)
			run("edge parameters", 40, signedZero)
			run("gradients return", 60, func(i int) float64 {
				if i%3 == 0 {
					return rng.NormFloat64() * 1e-3
				}
				return signedZero(i)
			})
			run("second decay", 600, signedZero)
		})
	}
}

// adamHypers are learning rates and ε that put the largest step a stuck
// moment can cause at different distances from zero: with Table I's values
// LR·m̂ underflows to ±0 before it is divided by ε (and more so with the
// tiny LR, whose pMin is the smallest normal number), with the next two it
// does not, and with ε = 0 nothing may be skipped.
var adamHypers = []struct{ lr, eps float64 }{
	{0.005, 1e-8}, {1e-300, 1}, {1, 1e-8}, {1e3, 1e-12}, {0.005, 0},
}

// TestAdamBitIdenticalStuckState sets the state a controller reaches after
// ≈ 720 000 zero-gradient updates — v on and around its own fixed points,
// m on and around its — under parameters from zero up through the smallest
// magnitude the skip accepts, and steps it against the plain loop.
func TestAdamBitIdenticalStuckState(t *testing.T) {
	sub := func(k uint64) float64 { return math.Float64frombits(k) }
	for _, h := range adamHypers {
		a := Adam{LR: h.lr, Beta1: 0.9, Beta2: 0.999, Eps: h.eps, t: 800000}
		var params []float64
		for _, vk := range []uint64{0, 1, 250, 499, 500, 501, 1 << 40, math.Float64bits(1e-300)} {
			for _, mk := range []uint64{0, 1, 4, 5, 6, 7} {
				for _, sign := range []float64{1, -1} {
					for _, p := range []float64{0.3, -7, 0, math.Copysign(0, -1), 1e6, -1e300} {
						a.m = append(a.m, sign*sub(mk))
						a.v = append(a.v, sub(vk))
						params = append(params, p)
					}
				}
			}
		}
		for e := -325; e <= -270; e++ {
			a.m = append(a.m, sub(5), -sub(5))
			a.v = append(a.v, 0, sub(499))
			params = append(params, math.Pow(10, float64(e)), -3*math.Pow(10, float64(e)))
		}
		// v is never negative or NaN in a run, but the skip must not rely on it.
		for _, v := range []float64{-sub(3), math.Copysign(0, -1), math.NaN(), math.Inf(1)} {
			a.m = append(a.m, sub(5))
			a.v = append(a.v, v)
			params = append(params, 0.3)
		}
		ap := newAdamPair(a, params)
		grad := make([]float64, len(params))
		for s := 0; s < 50; s++ {
			if diff := ap.step(grad); diff != "" {
				t.Fatalf("LR=%v ε=%v: %s", h.lr, h.eps, diff)
			}
		}
		if got := ap.stuck(); got < len(params)/2 {
			t.Fatalf("only %d of %d first moments stuck", got, len(params))
		}
	}
}

// FuzzAdamStepMatchesReference steps one parameter from raw bit patterns of
// (p, m, v, g) at update count t under one of adamHypers: three times with
// g, then three with a zero gradient, against the plain loop.
func FuzzAdamStepMatchesReference(f *testing.F) {
	bitsOf := math.Float64bits
	negZero := bitsOf(math.Copysign(0, -1))
	for i, p := range adamEdgeParams {
		h := uint8(i)
		f.Add(bitsOf(p), uint64(5), bitsOf(1e-9), uint64(0), uint32(7000), h)
		f.Add(bitsOf(p), uint64(4)|signBit, uint64(499), negZero, uint32(800000), h+1)
		f.Add(bitsOf(p), uint64(6), uint64(500), uint64(0), uint32(1), h+2)
		f.Add(bitsOf(p), bitsOf(1e-3), bitsOf(1e-6), bitsOf(0.25), uint32(100), h+3)
	}
	f.Add(bitsOf(0.3), uint64(5), bitsOf(math.NaN()), uint64(0), uint32(7000), uint8(0))
	f.Add(bitsOf(0.3), uint64(5), bitsOf(-1e-9), negZero, uint32(7000), uint8(0))
	f.Add(bitsOf(0.3), bitsOf(math.NaN()), uint64(1), uint64(0), uint32(0), uint8(1))
	f.Add(bitsOf(0.3), uint64(3), uint64(0), bitsOf(math.Inf(1)), uint32(12), uint8(1))
	f.Add(bitsOf(1e-300), uint64(5), uint64(0), uint64(0), uint32(7000), uint8(1))
	f.Fuzz(func(t *testing.T, pb, mb, vb, gb uint64, steps uint32, hyper uint8) {
		h := adamHypers[int(hyper)%len(adamHypers)]
		a := Adam{LR: h.lr, Beta1: 0.9, Beta2: 0.999, Eps: h.eps, t: int(steps % 4000000)}
		a.m = []float64{math.Float64frombits(mb)}
		a.v = []float64{math.Float64frombits(vb)}
		ap := newAdamPair(a, []float64{math.Float64frombits(pb)})
		for s := 0; s < 6; s++ {
			grad := []float64{math.Float64frombits(gb)}
			if s >= 3 {
				grad[0] = 0
			}
			if diff := ap.step(grad); diff != "" {
				t.Fatalf("LR=%v ε=%v: %s", h.lr, h.eps, diff)
			}
		}
	})
}

// adamAges are the optimiser states Adam.Step is timed and checked in, named
// by the moments of the parameters whose gradient is zero (0 keeps the
// starting moments): fresh, every moment a normal number; stuck, first
// moments on the subnormal fixed point a decay under β₁ = 0.9 ends on, as
// after ≈ 7 000 updates; stuckv, second moments too, ≈ 720 000 updates in.
var adamAges = []struct {
	name string
	m, v float64
}{
	{"fresh", 0, 0},
	{"stuck", math.Float64frombits(stuckCount(0.9)), 0},
	{"stuckv", math.Float64frombits(stuckCount(0.9)), math.Float64frombits(stuckCount(0.999))},
}

// adamAtAge returns the paper's model size (687 parameters) with the
// gradient of a trained policy — exactly zero for four parameters in five —
// and a function that puts an optimiser into one of adamAges.
func adamAtAge() (params, grad []float64, set func(a *Adam, m, v float64)) {
	const n = 687
	rng := newTestRand()
	params, grad = make([]float64, n), make([]float64, n)
	m0, v0 := make([]float64, n), make([]float64, n)
	for i := range params {
		params[i] = rng.NormFloat64()
		m0[i] = rng.NormFloat64() * 1e-3
		v0[i] = rng.Float64() * 1e-6
		if i%5 == 0 {
			grad[i] = rng.NormFloat64() * 1e-2
		}
	}
	return params, grad, func(a *Adam, m, v float64) {
		a.t = 7000
		a.m, a.v = append(a.m[:0], m0...), append(a.v[:0], v0...)
		for i := range a.m {
			if i%5 == 0 {
				continue
			}
			if m != 0 {
				a.m[i] = math.Copysign(m, m0[i])
			}
			if v != 0 {
				a.v[i] = v
			}
		}
	}
}

// TestAdamStepAllocFree: the optimiser step allocates nothing at any age —
// neither the general expression nor the stuck-moment skips.
func TestAdamStepAllocFree(t *testing.T) {
	params, grad, set := adamAtAge()
	for _, age := range adamAges {
		a := NewAdam(0.005)
		set(a, age.m, age.v)
		if avg := testing.AllocsPerRun(100, func() { a.Step(params, grad) }); avg != 0 {
			t.Errorf("%s: Adam.Step allocates %.1f times per call, want 0", age.name, avg)
		}
	}
}

// BenchmarkAdamStep is one optimiser step in each of adamAges. stuck must
// not be slower than fresh — that is what keeps a deployed controller's
// update from slowing down; end to end it is fedbench's device_train_aged
// workload that watches it.
func BenchmarkAdamStep(b *testing.B) {
	params, grad, set := adamAtAge()
	for _, age := range adamAges {
		b.Run(age.name, func(b *testing.B) {
			a := NewAdam(0.005)
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				// Back to the starting state before the zero-gradient moments
				// of the fresh optimiser can decay out of the normal range.
				if it%512 == 0 {
					set(a, age.m, age.v)
				}
				a.Step(params, grad)
			}
		})
	}
}
