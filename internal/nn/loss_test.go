package nn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHuberQuadraticRegion(t *testing.T) {
	loss, grad := Huber(1.5, 1.0, 1.0)
	if math.Abs(loss-0.125) > 1e-12 {
		t.Errorf("loss = %v, want 0.125", loss)
	}
	if math.Abs(grad-0.5) > 1e-12 {
		t.Errorf("grad = %v, want 0.5", grad)
	}
}

func TestHuberLinearRegion(t *testing.T) {
	loss, grad := Huber(3.0, 0.0, 1.0)
	if math.Abs(loss-2.5) > 1e-12 { // 1·(3 - 0.5)
		t.Errorf("loss = %v, want 2.5", loss)
	}
	if grad != 1 {
		t.Errorf("grad = %v, want 1", grad)
	}
	loss, grad = Huber(-3.0, 0.0, 1.0)
	if math.Abs(loss-2.5) > 1e-12 {
		t.Errorf("negative-side loss = %v, want 2.5", loss)
	}
	if grad != -1 {
		t.Errorf("negative-side grad = %v, want -1", grad)
	}
}

func TestHuberZeroError(t *testing.T) {
	loss, grad := Huber(0.7, 0.7, 1.0)
	if loss != 0 || grad != 0 {
		t.Errorf("zero error: loss %v grad %v, want 0, 0", loss, grad)
	}
}

func TestHuberContinuityAtDelta(t *testing.T) {
	// Loss and gradient must be continuous at |e| = δ.
	const delta = 1.0
	const eps = 1e-9
	lIn, gIn := Huber(delta-eps, 0, delta)
	lOut, gOut := Huber(delta+eps, 0, delta)
	if math.Abs(lIn-lOut) > 1e-6 {
		t.Errorf("loss discontinuous at delta: %v vs %v", lIn, lOut)
	}
	if math.Abs(gIn-gOut) > 1e-6 {
		t.Errorf("grad discontinuous at delta: %v vs %v", gIn, gOut)
	}
}

func TestHuberCustomDelta(t *testing.T) {
	// δ = 0.5, error 2: loss = 0.5·(2 - 0.25) = 0.875, grad = 0.5.
	loss, grad := Huber(2, 0, 0.5)
	if math.Abs(loss-0.875) > 1e-12 {
		t.Errorf("loss = %v, want 0.875", loss)
	}
	if grad != 0.5 {
		t.Errorf("grad = %v, want 0.5", grad)
	}
}

// Property: Huber loss is non-negative, symmetric in the error, and bounded
// above by the squared error.
func TestHuberProperties(t *testing.T) {
	f := func(pred, target float64) bool {
		if math.IsNaN(pred) || math.IsInf(pred, 0) || math.IsNaN(target) || math.IsInf(target, 0) {
			return true
		}
		if math.Abs(pred) > 1e8 || math.Abs(target) > 1e8 {
			return true
		}
		l1, g1 := Huber(pred, target, 1.0)
		l2, g2 := Huber(target, pred, 1.0) // mirrored error
		sq := 0.5 * (pred - target) * (pred - target)
		if l1 < 0 {
			return false
		}
		if math.Abs(l1-l2) > 1e-9*(1+l1) {
			return false
		}
		if math.Abs(g1+g2) > 1e-9*(1+math.Abs(g1)) {
			return false
		}
		return l1 <= sq+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the gradient is the derivative of the loss (numeric check).
func TestHuberGradientProperty(t *testing.T) {
	f := func(pred, target float64) bool {
		if math.IsNaN(pred) || math.IsInf(pred, 0) || math.IsNaN(target) || math.IsInf(target, 0) {
			return true
		}
		if math.Abs(pred) > 1e6 || math.Abs(target) > 1e6 {
			return true
		}
		// Skip the non-differentiable kink neighbourhood.
		if math.Abs(math.Abs(pred-target)-1.0) < 1e-3 {
			return true
		}
		const h = 1e-6
		lp, _ := Huber(pred+h, target, 1.0)
		lm, _ := Huber(pred-h, target, 1.0)
		numeric := (lp - lm) / (2 * h)
		_, grad := Huber(pred, target, 1.0)
		return math.Abs(numeric-grad) < 1e-4*(1+math.Abs(grad))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
