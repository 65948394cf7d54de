package nn

import "math"

// HuberDelta is the transition point between the quadratic and linear
// regions of the Huber loss. The paper specifies the Huber loss for the
// per-action reward regression; δ = 1 is the conventional choice and matches
// the reward range of Eq. (4), which lies in [-1, 1].
const HuberDelta = 1.0

// Huber returns the Huber loss and its gradient with respect to pred for a
// scalar prediction/target pair: quadratic for |pred-target| <= delta and
// linear beyond, which keeps single outlier rewards (e.g. a sudden power
// violation) from destabilising the regression.
func Huber(pred, target, delta float64) (loss, grad float64) {
	e := pred - target
	if math.Abs(e) <= delta {
		return 0.5 * e * e, e
	}
	return delta * (math.Abs(e) - 0.5*delta), delta * sign(e)
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
