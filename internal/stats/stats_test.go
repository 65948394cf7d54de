package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{4}, 4},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almost(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestStd(t *testing.T) {
	if got := Std([]float64{5}); got != 0 {
		t.Errorf("Std of single value = %v, want 0", got)
	}
	// Population std of {2, 4, 4, 4, 5, 5, 7, 9} is exactly 2.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Std(xs); !almost(got, 2, 1e-12) {
		t.Errorf("Std(%v) = %v, want 2", xs, got)
	}
	if got := Std([]float64{3, 3, 3}); !almost(got, 0, 1e-12) {
		t.Errorf("Std of constant = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
}

func TestMinEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min of empty slice did not panic")
		}
	}()
	Min(nil)
}

func TestMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max of empty slice did not panic")
		}
	}()
	Max(nil)
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); !almost(got, 3, 1e-12) {
		t.Errorf("Sum = %v, want 3", got)
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("Percentile single = %v, want 7", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPercentDelta(t *testing.T) {
	if got := PercentDelta(120, 100); !almost(got, 20, 1e-12) {
		t.Errorf("PercentDelta(120,100) = %v, want 20", got)
	}
	if got := PercentDelta(80, 100); !almost(got, -20, 1e-12) {
		t.Errorf("PercentDelta(80,100) = %v, want -20", got)
	}
	if got := PercentDelta(5, 0); got != 0 {
		t.Errorf("PercentDelta with zero base = %v, want 0", got)
	}
}

func TestRunningMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	var r Running
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 1
		r.Add(xs[i])
	}
	if r.N() != len(xs) {
		t.Fatalf("N = %d, want %d", r.N(), len(xs))
	}
	if !almost(r.Mean(), Mean(xs), 1e-9) {
		t.Errorf("running mean %v != direct %v", r.Mean(), Mean(xs))
	}
	if !almost(r.Std(), Std(xs), 1e-9) {
		t.Errorf("running std %v != direct %v", r.Std(), Std(xs))
	}
	if r.Min() != Min(xs) || r.Max() != Max(xs) {
		t.Errorf("running extrema (%v, %v) != direct (%v, %v)", r.Min(), r.Max(), Min(xs), Max(xs))
	}
}

func TestRunningZeroValue(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Std() != 0 || r.N() != 0 {
		t.Errorf("zero Running not zeroed: %v", r.String())
	}
	r.Add(2)
	if r.Std() != 0 {
		t.Errorf("Std with one sample = %v, want 0", r.Std())
	}
	if r.Min() != 2 || r.Max() != 2 {
		t.Errorf("extrema after one sample: [%v, %v], want [2, 2]", r.Min(), r.Max())
	}
}

// Property: for any data, Running matches the direct computation.
func TestRunningProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			clean = append(clean, x)
		}
		if len(clean) < 2 {
			return true
		}
		var r Running
		for _, x := range clean {
			r.Add(x)
		}
		scale := math.Max(1, math.Abs(Mean(clean)))
		return almost(r.Mean(), Mean(clean), 1e-6*scale) && r.Min() == Min(clean) && r.Max() == Max(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			clean = append(clean, x)
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= Min(clean)-1e-9 && m <= Max(clean)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-9, true},  // well inside DefaultTol
		{1, 1 + 1e-3, false}, // clearly different
		{0, 1e-9, true},      // absolute tolerance near zero
		{0, 1e-3, false},
		{1e12, 1e12 * (1 + 1e-9), true}, // relative tolerance at scale
		{1e12, 1e12 * (1 + 1e-3), false},
		{float64(float32(0.1)), 0.1, true}, // wire-format float32 round trip
		{math.Inf(1), math.Inf(1), true},   // equal infinities
		{math.Inf(1), math.Inf(-1), false},
		{math.Inf(1), 1e300, false},
		{math.NaN(), math.NaN(), false}, // NaN equals nothing
		{math.NaN(), 0, false},
		{-2.5, -2.5, true},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b); got != c.want {
			t.Errorf("ApproxEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		// Symmetry must hold for every pair.
		if ApproxEqual(c.a, c.b) != ApproxEqual(c.b, c.a) {
			t.Errorf("ApproxEqual(%v, %v) is asymmetric", c.a, c.b)
		}
	}
}

func TestApproxEqualTol(t *testing.T) {
	if !ApproxEqualTol(100, 101, 0.02) {
		t.Error("1% difference must pass a 2% tolerance")
	}
	if ApproxEqualTol(100, 103, 0.02) {
		t.Error("3% difference must fail a 2% tolerance")
	}
	// Property: exact equality always passes, any tolerance.
	f := func(x, tol float64) bool {
		if math.IsNaN(x) {
			return true
		}
		return ApproxEqualTol(x, x, math.Abs(tol))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
