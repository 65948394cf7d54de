package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestNet(t *testing.T, sizes ...int) *Network {
	t.Helper()
	return New(rand.New(rand.NewSource(1)), sizes...)
}

func TestNumParamsPaperNetwork(t *testing.T) {
	// The paper's 5-32-15 policy network: 5·32+32 + 32·15+15 = 687.
	n := newTestNet(t, 5, 32, 15)
	if got := n.NumParams(); got != 687 {
		t.Fatalf("NumParams = %d, want 687", got)
	}
}

func TestNumParamsGeneral(t *testing.T) {
	cases := []struct {
		sizes []int
		want  int
	}{
		{[]int{1, 1}, 2},
		{[]int{2, 3}, 9},
		{[]int{4, 8, 2}, 58},
		{[]int{3, 5, 5, 1}, 56},
	}
	for _, c := range cases {
		n := newTestNet(t, c.sizes...)
		if got := n.NumParams(); got != c.want {
			t.Errorf("NumParams(%v) = %d, want %d", c.sizes, got, c.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, sizes := range [][]int{{}, {5}, {5, 0}, {0, 3}, {5, -1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", sizes)
				}
			}()
			New(rand.New(rand.NewSource(1)), sizes...)
		}()
	}
}

func TestSizesCopies(t *testing.T) {
	n := newTestNet(t, 5, 32, 15)
	s := n.Sizes()
	s[0] = 99
	if n.Sizes()[0] != 5 {
		t.Fatal("Sizes returned a live reference")
	}
}

func TestForwardDeterministic(t *testing.T) {
	n := newTestNet(t, 5, 32, 15)
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	a := append([]float64(nil), n.Forward(x)...)
	b := n.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Forward not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestForwardInputLengthPanics(t *testing.T) {
	n := newTestNet(t, 5, 8, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong input length did not panic")
		}
	}()
	n.Forward([]float64{1, 2, 3})
}

func TestForwardLinearNetwork(t *testing.T) {
	// A 2-1 network with hand-set weights computes w·x + b exactly (the
	// output layer is linear).
	n := newTestNet(t, 2, 1)
	n.SetParams([]float64{2, -3, 0.5}) // w = [2, -3], b = 0.5
	out := n.Forward([]float64{1, 1})
	want := 2.0 - 3.0 + 0.5
	if math.Abs(out[0]-want) > 1e-12 {
		t.Fatalf("linear output = %v, want %v", out[0], want)
	}
}

func TestForwardReLUHidden(t *testing.T) {
	// 1-1-1 network: hidden = ReLU(w0·x + b0), out = w1·hidden + b1.
	n := newTestNet(t, 1, 1, 1)
	n.SetParams([]float64{1, 0, 1, 0}) // identity chain through ReLU
	if out := n.Forward([]float64{2})[0]; math.Abs(out-2) > 1e-12 {
		t.Fatalf("positive passthrough = %v, want 2", out)
	}
	if out := n.Forward([]float64{-2})[0]; out != 0 {
		t.Fatalf("ReLU should clamp negative pre-activation: got %v", out)
	}
}

func TestSetParamsValidation(t *testing.T) {
	n := newTestNet(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetParams with wrong length did not panic")
		}
	}()
	n.SetParams([]float64{1, 2, 3})
}

func TestSetParamsCopies(t *testing.T) {
	n := newTestNet(t, 2, 1)
	p := []float64{1, 2, 3}
	n.SetParams(p)
	p[0] = 99
	if n.Params()[0] != 1 {
		t.Fatal("SetParams retained the caller's slice")
	}
}

func TestCloneIndependence(t *testing.T) {
	n := newTestNet(t, 3, 4, 2)
	c := n.Clone()
	x := []float64{0.5, -0.2, 0.7}
	a := append([]float64(nil), n.Forward(x)...)
	b := c.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone differs at output %d", i)
		}
	}
	// Mutating the clone must not affect the original.
	c.Params()[0] += 10
	b2 := n.Forward(x)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatal("mutating clone changed original")
		}
	}
}

func TestHeInitStatistics(t *testing.T) {
	// He init: weight std should be near sqrt(2/fanIn) and biases zero.
	n := New(rand.New(rand.NewSource(7)), 100, 200)
	w := n.Params()[:100*200]
	var sum, sq float64
	for _, v := range w {
		sum += v
		sq += v * v
	}
	mean := sum / float64(len(w))
	std := math.Sqrt(sq/float64(len(w)) - mean*mean)
	wantStd := math.Sqrt(2.0 / 100)
	if math.Abs(mean) > 0.01 {
		t.Errorf("He init mean = %v, want ~0", mean)
	}
	if math.Abs(std-wantStd) > 0.01 {
		t.Errorf("He init std = %v, want ~%v", std, wantStd)
	}
	for i, b := range n.Params()[100*200:] {
		if b != 0 {
			t.Fatalf("bias %d = %v, want 0", i, b)
		}
	}
}

// TestGradientCheck validates Backward against numerical differentiation —
// the canonical correctness test for a hand-written backprop.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := New(rng, 4, 6, 3)
	x := []float64{0.3, -0.6, 0.9, 0.2}
	target := []float64{0.1, -0.4, 0.7}

	// Loss: 0.5·Σ(out - target)², gradOut = out - target.
	loss := func() float64 {
		out := n.Forward(x)
		l := 0.0
		for i := range out {
			d := out[i] - target[i]
			l += 0.5 * d * d
		}
		return l
	}

	out := n.Forward(x)
	gradOut := make([]float64, len(out))
	for i := range out {
		gradOut[i] = out[i] - target[i]
	}
	grad := make([]float64, n.NumParams())
	n.Backward(gradOut, grad)

	const h = 1e-6
	params := n.Params()
	checked := 0
	for i := 0; i < len(params); i += 3 { // spot-check a spread of params
		orig := params[i]
		params[i] = orig + h
		lp := loss()
		params[i] = orig - h
		lm := loss()
		params[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-grad[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("param %d: analytic %v vs numeric %v", i, grad[i], numeric)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d parameters checked", checked)
	}
}

// TestGradientCheckDeepNetwork repeats the numerical gradient check on a
// three-hidden-layer network, exercising ReLU backpropagation through
// multiple layers (the single-hidden-layer check cannot catch errors in
// the inter-hidden-layer delta propagation).
func TestGradientCheckDeepNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := New(rng, 3, 5, 4, 5, 2)
	x := []float64{0.7, -0.4, 0.2}
	target := []float64{0.3, -0.8}

	loss := func() float64 {
		out := n.Forward(x)
		l := 0.0
		for i := range out {
			d := out[i] - target[i]
			l += 0.5 * d * d
		}
		return l
	}
	out := n.Forward(x)
	gradOut := make([]float64, len(out))
	for i := range out {
		gradOut[i] = out[i] - target[i]
	}
	grad := make([]float64, n.NumParams())
	n.Backward(gradOut, grad)

	const h = 1e-6
	params := n.Params()
	for i := 0; i < len(params); i += 2 {
		orig := params[i]
		params[i] = orig + h
		lp := loss()
		params[i] = orig - h
		lm := loss()
		params[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-grad[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("param %d: analytic %v vs numeric %v", i, grad[i], numeric)
		}
	}
}

func TestBackwardAccumulates(t *testing.T) {
	n := newTestNet(t, 2, 3, 1)
	x := []float64{0.4, -0.8}
	gradOut := []float64{1}
	g1 := make([]float64, n.NumParams())
	n.Forward(x)
	n.Backward(gradOut, g1)
	g2 := make([]float64, n.NumParams())
	n.Forward(x)
	n.Backward(gradOut, g2)
	n.Forward(x)
	n.Backward(gradOut, g2) // accumulate twice
	for i := range g1 {
		if math.Abs(g2[i]-2*g1[i]) > 1e-12 {
			t.Fatalf("gradient does not accumulate at %d: %v vs 2·%v", i, g2[i], g1[i])
		}
	}
}

func TestBackwardValidation(t *testing.T) {
	n := newTestNet(t, 2, 3, 2)
	n.Forward([]float64{1, 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Backward with wrong gradOut length did not panic")
			}
		}()
		n.Backward([]float64{1}, make([]float64, n.NumParams()))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Backward with wrong grad buffer did not panic")
			}
		}()
		n.Backward([]float64{1, 0}, make([]float64, 3))
	}()
}

func TestAverageParams(t *testing.T) {
	dst := make([]float64, 3)
	AverageParams(dst, []float64{1, 2, 3}, []float64{3, 4, 5})
	want := []float64{2, 3, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AverageParams[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestAverageParamsSingleIdentity(t *testing.T) {
	src := []float64{1.5, -2.5}
	dst := make([]float64, 2)
	AverageParams(dst, src)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatal("single-source average should be identity")
		}
	}
}

func TestAverageParamsValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AverageParams with no sources did not panic")
			}
		}()
		AverageParams(make([]float64, 2))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AverageParams with length mismatch did not panic")
			}
		}()
		AverageParams(make([]float64, 2), []float64{1})
	}()
}

// Property: averaging N copies of the same vector returns that vector.
func TestAverageParamsIdempotentProperty(t *testing.T) {
	f := func(raw []float64, nCopies uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			// Skip non-finite inputs and magnitudes whose N-fold sum would
			// overflow.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > math.MaxFloat64/8 {
				return true
			}
		}
		n := int(nCopies%5) + 1
		srcs := make([][]float64, n)
		for i := range srcs {
			srcs[i] = raw
		}
		dst := make([]float64, len(raw))
		AverageParams(dst, srcs...)
		for i := range raw {
			if math.Abs(dst[i]-raw[i]) > 1e-9*(1+math.Abs(raw[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the average is bounded by the element-wise min and max of the
// sources.
func TestAverageParamsBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		dim := rng.Intn(10) + 1
		n := rng.Intn(4) + 1
		srcs := make([][]float64, n)
		for i := range srcs {
			srcs[i] = make([]float64, dim)
			for j := range srcs[i] {
				srcs[i][j] = rng.NormFloat64() * 10
			}
		}
		dst := make([]float64, dim)
		AverageParams(dst, srcs...)
		for j := 0; j < dim; j++ {
			lo, hi := srcs[0][j], srcs[0][j]
			for i := 1; i < n; i++ {
				lo = math.Min(lo, srcs[i][j])
				hi = math.Max(hi, srcs[i][j])
			}
			if dst[j] < lo-1e-9 || dst[j] > hi+1e-9 {
				t.Fatalf("average %v outside [%v, %v]", dst[j], lo, hi)
			}
		}
	}
}
