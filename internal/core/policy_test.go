package core

import (
	"math"
	"math/rand"
	"testing"
)

// policyShapes are the parameter sets the policy-network tests run on: the
// paper's 5-32-15, no hidden layer, two hidden layers, and a narrow output.
func policyShapes() []Params {
	deep := Defaults(15)
	deep.HiddenLayers, deep.HiddenNeurons = 2, 7
	flat := Defaults(9)
	flat.HiddenLayers = 0
	narrow := Defaults(2)
	narrow.HiddenNeurons = 3
	return []Params{Defaults(15), flat, deep, narrow}
}

// TestInitialModelMatchesController: InitialModel returns, bit for bit, the
// parameters NewController starts from on the same seed, and leaves the
// random source exactly where NewController leaves it, so a caller that
// keeps drawing from it sees the same stream either way.
func TestInitialModelMatchesController(t *testing.T) {
	for _, p := range policyShapes() {
		for seed := int64(1); seed <= 5; seed++ {
			rc := rand.New(rand.NewSource(seed))
			want := NewController(p, rc).ModelParams()
			ri := rand.New(rand.NewSource(seed))
			got := InitialModel(p, ri)
			if len(got) != len(want) {
				t.Fatalf("sizes %v seed %d: %d params, want %d", p.layerSizes(), seed, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("sizes %v seed %d: param %d = %v, controller %v", p.layerSizes(), seed, i, got[i], want[i])
				}
			}
			if g, w := ri.Int63(), rc.Int63(); g != w {
				t.Fatalf("sizes %v seed %d: next draw %d after InitialModel, %d after NewController", p.layerSizes(), seed, g, w)
			}
		}
	}
}

// TestPolicyNetworkMatchesController: a policy network built from a
// controller's snapshot predicts the controller's outputs bit for bit and
// picks its greedy action, and it holds a copy: a later change to the
// snapshot does not reach it.
func TestPolicyNetworkMatchesController(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, p := range policyShapes() {
		c := NewController(p, rand.New(rand.NewSource(rng.Int63())))
		model := c.ModelParams()
		net := NewPolicyNetwork(p, model)
		for k := 0; k < 64; k++ {
			state := []float64{rng.Float64(), rng.Float64(), 2 * rng.Float64(), rng.Float64(), rng.NormFloat64()}
			want := append([]float64(nil), c.Predict(state)...)
			got := net.Forward(state)
			for a := range want {
				if math.Float64bits(got[a]) != math.Float64bits(want[a]) {
					t.Fatalf("sizes %v: output %d = %v, controller %v", p.layerSizes(), a, got[a], want[a])
				}
			}
			if g, w := Greedy(got), c.GreedyAction(state); g != w {
				t.Fatalf("sizes %v: greedy action %d, controller %d", p.layerSizes(), g, w)
			}
		}
		before := net.Params()[0]
		model[0] += 1
		if net.Params()[0] != before {
			t.Fatalf("sizes %v: the policy network shares the snapshot's memory", p.layerSizes())
		}
	}
}

// TestNewPolicyNetworkPanicsOnMismatch: a model that does not fit the
// parameters' layer sizes is a programming error, caught at construction.
func TestNewPolicyNetworkPanicsOnMismatch(t *testing.T) {
	p := Defaults(15)
	defer func() {
		if recover() == nil {
			t.Fatal("NewPolicyNetwork accepted a 686-parameter model for a 687-parameter network")
		}
	}()
	NewPolicyNetwork(p, make([]float64, 686))
}

// TestGreedyTies: Greedy takes the lowest index among equal maxima, and a
// NaN never wins over a number after it (no comparison with NaN is true).
func TestGreedyTies(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		mu   []float64
		want int
	}{
		{[]float64{1}, 0},
		{[]float64{0, 2, 2, 1}, 1},
		{[]float64{-1, -1, -1}, 0},
		{[]float64{math.Inf(-1), -math.MaxFloat64}, 1},
		{[]float64{nan, 5, 7}, 0},
		{[]float64{3, nan, 7}, 2},
	} {
		if got := Greedy(c.mu); got != c.want {
			t.Errorf("Greedy(%v) = %d, want %d", c.mu, got, c.want)
		}
	}
}
