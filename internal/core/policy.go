package core

import (
	"math/rand"

	"fedpower/internal/nn"
)

// The policy network outside a Controller. A Controller carries the
// training state of Algorithm 1 — replay buffer, optimiser, gradient,
// exploration source — which a federation's initial model and a frozen
// evaluation snapshot never use, so the two functions below read only p's
// layer sizes and panic when those are invalid.

// InitialModel returns the parameters NewController(p, rng) starts from for
// a valid p: the same He draws from rng, and nothing else is drawn, so rng
// is left where NewController would leave it.
func InitialModel(p Params, rng *rand.Rand) []float64 {
	return nn.New(rng, p.layerSizes()...).Params()
}

// NewPolicyNetwork returns p's policy network holding a copy of model, which
// must have p's parameter count: the network a frozen snapshot runs on,
// with nothing drawn and no training state.
func NewPolicyNetwork(p Params, model []float64) *nn.Network {
	return nn.FromParams(model, p.layerSizes()...)
}

// Greedy returns argmax_a mu[a], the lowest such a: the pure exploitation
// choice over the predicted rewards mu = μ(s, ·, θ), which evaluation makes
// when "the agents consistently exploit the action with the highest
// predicted reward" (§IV-A).
func Greedy(mu []float64) int {
	best := 0
	for a := 1; a < len(mu); a++ {
		if mu[a] > mu[best] {
			best = a
		}
	}
	return best
}
