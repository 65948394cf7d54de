package core

import (
	"fmt"
	"math"
	"math/rand"

	"fedpower/internal/nn"
	"fedpower/internal/replay"
)

// Params collects every hyper-parameter of the local power controller.
// Defaults returns the values of the paper's Table I.
type Params struct {
	LearningRate float64 // Adam learning rate α
	TauMax       float64 // initial softmax temperature τ_max
	TauDecay     float64 // exponential temperature decay rate τ_decay per step
	TauMin       float64 // temperature floor τ_min

	ReplayCapacity int // replay buffer capacity C
	BatchSize      int // mini-batch size C_B
	OptimInterval  int // update the policy every H environment steps

	HiddenLayers  int // number of hidden layers (paper: 1)
	HiddenNeurons int // neurons per hidden layer (paper: 32)

	Actions int // number of V/f levels K (Jetson Nano: 15)

	Reward RewardParams // P_crit and k_offset of Eq. (4)

	// Exploration selects the exploration strategy. The paper uses softmax
	// sampling at decaying temperature (Eq. 3); ε-greedy is provided for the
	// exploration-strategy ablation.
	Exploration ExplorationMode
	// EpsilonMax/EpsilonDecay/EpsilonMin drive the ε schedule when
	// Exploration is ExploreEpsilonGreedy (ε = max(min, max·exp(-decay·t))).
	EpsilonMax   float64
	EpsilonDecay float64
	EpsilonMin   float64

	// ScalarUpdate forces Update onto the per-sample reference kernels
	// (replay.Sample + nn.ForwardAction/BackwardScalar) instead of the
	// batched ones (replay.SampleInto + nn.ForwardBatch/BackwardBatch).
	// The two paths are bit-identical by construction — the seam exists so
	// tests and experiments can prove it end to end (the batch bit-identity
	// suite and TestFig3BatchBitIdentical), not to change behaviour.
	ScalarUpdate bool
}

// ExplorationMode selects how training-time actions are drawn.
type ExplorationMode int

const (
	// ExploreSoftmax samples from the Boltzmann distribution of Eq. (3) at
	// the current temperature — the paper's strategy.
	ExploreSoftmax ExplorationMode = iota
	// ExploreEpsilonGreedy takes a uniform random action with probability ε
	// and the greedy action otherwise.
	ExploreEpsilonGreedy
)

// Defaults returns the paper's Table I configuration for a processor with
// the given number of V/f levels.
func Defaults(actions int) Params {
	return Params{
		LearningRate:   0.005,
		TauMax:         0.9,
		TauDecay:       0.0005,
		TauMin:         0.01,
		ReplayCapacity: 4000,
		BatchSize:      128,
		OptimInterval:  20,
		HiddenLayers:   1,
		HiddenNeurons:  32,
		Actions:        actions,
		Reward:         RewardParams{PCritW: 0.6, KOffsetW: 0.05},
	}
}

// Validate reports the first inconsistency in the parameters.
func (p Params) Validate() error {
	switch {
	case p.LearningRate <= 0:
		return fmt.Errorf("core: learning rate %v must be positive", p.LearningRate)
	case p.TauMax <= 0 || p.TauMin <= 0 || p.TauMin > p.TauMax:
		return fmt.Errorf("core: temperature range [%v, %v] invalid", p.TauMin, p.TauMax)
	case p.TauDecay < 0:
		return fmt.Errorf("core: temperature decay %v must be non-negative", p.TauDecay)
	case p.ReplayCapacity <= 0:
		return fmt.Errorf("core: replay capacity %d must be positive", p.ReplayCapacity)
	case p.BatchSize <= 0:
		return fmt.Errorf("core: batch size %d must be positive", p.BatchSize)
	case p.OptimInterval <= 0:
		return fmt.Errorf("core: optimisation interval %d must be positive", p.OptimInterval)
	case p.HiddenLayers < 0:
		return fmt.Errorf("core: hidden layer count %d must be non-negative", p.HiddenLayers)
	case p.HiddenLayers > 0 && p.HiddenNeurons <= 0:
		return fmt.Errorf("core: hidden neuron count %d must be positive", p.HiddenNeurons)
	case p.Actions <= 1:
		return fmt.Errorf("core: action count %d must exceed 1", p.Actions)
	}
	if p.Exploration == ExploreEpsilonGreedy {
		switch {
		case p.EpsilonMax <= 0 || p.EpsilonMax > 1:
			return fmt.Errorf("core: epsilon max %v out of (0,1]", p.EpsilonMax)
		case p.EpsilonMin <= 0 || p.EpsilonMin > p.EpsilonMax:
			return fmt.Errorf("core: epsilon range [%v, %v] invalid", p.EpsilonMin, p.EpsilonMax)
		case p.EpsilonDecay < 0:
			return fmt.Errorf("core: epsilon decay %v negative", p.EpsilonDecay)
		}
	}
	return p.Reward.Validate()
}

// WithEpsilonGreedy returns a copy of p configured for ε-greedy exploration
// with the conventional schedule used by the tabular baseline (ε from 1.0,
// exponential decay, floor 0.01).
func (p Params) WithEpsilonGreedy() Params {
	p.Exploration = ExploreEpsilonGreedy
	p.EpsilonMax = 1.0
	p.EpsilonDecay = p.TauDecay
	p.EpsilonMin = 0.01
	return p
}

// layerSizes expands the Params into explicit NN layer widths.
func (p Params) layerSizes() []int {
	sizes := []int{StateDim}
	for i := 0; i < p.HiddenLayers; i++ {
		sizes = append(sizes, p.HiddenNeurons)
	}
	return append(sizes, p.Actions)
}

// Controller is the local power controller of Algorithm 1: a contextual
// bandit whose policy network μ(s, a, θ) regresses the expected reward per
// V/f level, with softmax exploration at temperature τ and periodic Huber
// updates over replay mini-batches.
//
// A Controller is not safe for concurrent use; in the federated setting each
// device owns exactly one.
type Controller struct {
	P Params

	net   *nn.Network
	opt   nn.Optimizer
	buf   *replay.Buffer
	rng   *rand.Rand
	step  int
	grad  []float64
	batch []replay.Sample // scalar reference path scratch
	probs []float64
	loss  float64 // last batch loss, for diagnostics

	// Batched-update scratch: the mini-batch's action/reward columns and
	// the per-sample outputs and loss gradients, grown once (capacity-
	// guarded) and reused so Update stays allocation-free. The state
	// matrix itself is network-owned (nn.BatchStates).
	actions []int
	rewards []float64
	outs    []float64
	gs      []float64
}

// NewController builds a controller from p, drawing weight initialisation
// and all exploration randomness from rng. It panics on invalid parameters
// (configuration errors are programming bugs in this codebase, not runtime
// input).
func NewController(p Params, rng *rand.Rand) *Controller {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	net := nn.New(rng, p.layerSizes()...)
	return &Controller{
		P:     p,
		net:   net,
		opt:   nn.NewAdam(p.LearningRate),
		buf:   replay.New(p.ReplayCapacity),
		rng:   rng,
		grad:  make([]float64, net.NumParams()),
		probs: make([]float64, p.Actions),
	}
}

// Tau returns the current softmax temperature: τ_max·exp(-τ_decay·t)
// clamped from below at τ_min.
func (c *Controller) Tau() float64 {
	tau := c.P.TauMax * math.Exp(-c.P.TauDecay*float64(c.step))
	if tau < c.P.TauMin {
		tau = c.P.TauMin
	}
	return tau
}

// Step returns the number of environment interactions recorded so far.
func (c *Controller) Step() int { return c.step }

// Buffer exposes the replay buffer for diagnostics and overhead accounting.
func (c *Controller) Buffer() *replay.Buffer { return c.buf }

// LastLoss returns the mean Huber loss of the most recent batch update, or 0
// before the first update.
func (c *Controller) LastLoss() float64 { return c.loss }

// Predict returns μ(s, a, θ) for every action a — the network's expected
// reward per V/f level in the given state. The returned slice is owned by
// the controller and valid until the next Predict/Policy/Update call.
func (c *Controller) Predict(state []float64) []float64 {
	return c.net.Forward(state)
}

// Policy computes the softmax action distribution π(a|s, θ, τ) of Eq. (3) at
// the current temperature. The returned slice is owned by the controller.
func (c *Controller) Policy(state []float64) []float64 {
	return c.policyAt(state, c.Tau())
}

func (c *Controller) policyAt(state []float64, tau float64) []float64 {
	mu := c.net.Forward(state)
	// Numerically stable softmax over μ/τ.
	maxv := mu[0]
	for _, v := range mu[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range mu {
		e := math.Exp((v - maxv) / tau)
		c.probs[i] = e
		sum += e
	}
	for i := range c.probs {
		c.probs[i] /= sum
	}
	return c.probs
}

// Epsilon returns the current ε-greedy exploration rate; meaningful only in
// ExploreEpsilonGreedy mode.
func (c *Controller) Epsilon() float64 {
	eps := c.P.EpsilonMax * math.Exp(-c.P.EpsilonDecay*float64(c.step))
	if eps < c.P.EpsilonMin {
		eps = c.P.EpsilonMin
	}
	return eps
}

// SelectAction draws the next V/f level according to the configured
// exploration strategy — softmax sampling from π(a|s, θ, τ) (line 6 of
// Algorithm 1) by default, ε-greedy in the ablation mode.
func (c *Controller) SelectAction(state []float64) int {
	if c.P.Exploration == ExploreEpsilonGreedy {
		if c.rng.Float64() < c.Epsilon() {
			return c.rng.Intn(c.P.Actions)
		}
		return c.GreedyAction(state)
	}
	probs := c.Policy(state)
	u := c.rng.Float64()
	acc := 0.0
	for a, p := range probs {
		acc += p
		if u < acc {
			return a
		}
	}
	return len(probs) - 1 // guard against floating-point shortfall
}

// GreedyAction returns argmax_a μ(s, a, θ) for the live network: Greedy
// over Predict's outputs, the choice ε-greedy exploration exploits with.
func (c *Controller) GreedyAction(state []float64) int {
	return Greedy(c.net.Forward(state))
}

// Observe records one interaction (s_t, a_t, r_t) in the replay buffer,
// advances the temperature schedule, and — every OptimInterval steps — runs
// one mini-batch update (lines 8–13 of Algorithm 1).
func (c *Controller) Observe(state []float64, action int, reward float64) {
	if action < 0 || action >= c.P.Actions {
		panic(fmt.Sprintf("core: observed action %d out of range [0,%d)", action, c.P.Actions))
	}
	if math.IsNaN(reward) || math.IsInf(reward, 0) {
		// A non-finite reward silently poisons every later batch through
		// the replay buffer; fail at the source instead.
		panic(fmt.Sprintf("core: non-finite reward %v observed", reward))
	}
	for i, v := range state {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("core: non-finite state feature %d = %v observed", i, v))
		}
	}
	c.buf.Add(state, action, reward)
	c.step++
	if c.step%c.P.OptimInterval == 0 {
		c.Update()
	}
}

// AdvanceSchedule advances the exploration schedule (temperature / epsilon
// decay) by one step without recording a sample or updating the network.
// Architectures that learn off-device (e.g. the server-side baseline) use
// it to keep on-device exploration decaying while all training happens
// elsewhere.
func (c *Controller) AdvanceSchedule() { c.step++ }

// Update performs one gradient step on the policy network: it samples a
// mini-batch B from the replay buffer and minimises the mean Huber loss
// between μ(s, a, θ) and the observed reward r for the taken action only
// (Eq. 2). Updating only the taken action's output is what makes the
// regression a contextual bandit value estimate rather than a full
// distribution fit.
//
// Update runs the batched kernels (nn.ForwardBatch/BackwardBatch): the
// sampled states are packed into the network-owned [batch × in] matrix and
// the network weights stream through the cache once per sample block
// instead of once per sample. The per-sample reference path is kept
// (P.ScalarUpdate) and the two are bit-identical — same draws from the
// same rng stream, same float operations in the same per-accumulator
// order — which the batch bit-identity suite pins exactly. Both paths are
// allocation-free at steady state, proven by the allocfree effect
// analyzer.
//
//fedlint:allocfree
func (c *Controller) Update() {
	if c.buf.Len() == 0 {
		return
	}
	if c.P.ScalarUpdate {
		c.updateScalar()
		return
	}
	c.updateBatched()
}

// updateScalar is the per-sample reference implementation of Update: one
// ForwardAction/BackwardScalar pair per drawn sample, in draw order.
func (c *Controller) updateScalar() {
	n := c.P.BatchSize
	c.batch = c.buf.Sample(c.rng, n, c.batch)
	for i := range c.grad {
		c.grad[i] = 0
	}
	totalLoss := 0.0
	for _, s := range c.batch {
		// The bandit loss touches a single output unit, so the scalar
		// forward/backward fast paths apply; with the sample buffer and
		// the network scratch reused, the whole update is allocation-free.
		out := c.net.ForwardAction(s.State, s.Action)
		loss, g := nn.Huber(out, s.Reward, nn.HuberDelta)
		totalLoss += loss
		c.net.BackwardScalar(s.Action, g/float64(n), c.grad)
	}
	c.loss = totalLoss / float64(n)
	c.opt.Step(c.net.Params(), c.grad)
}

// updateBatched is the cache-blocked implementation of Update: the drawn
// mini-batch is packed column-wise (states into the network's batch
// matrix, actions/rewards into controller-owned columns) and forward,
// loss and backward each run once over the whole batch.
func (c *Controller) updateBatched() {
	n := c.P.BatchSize
	if cap(c.actions) < n {
		c.actions = make([]int, n)
		c.rewards = make([]float64, n)
		c.outs = make([]float64, n)
		c.gs = make([]float64, n)
	}
	actions := c.actions[:n]
	rewards := c.rewards[:n]
	outs := c.outs[:n]
	gs := c.gs[:n]
	c.buf.SampleInto(c.rng, c.net.BatchStates(n), actions, rewards)
	for i := range c.grad {
		c.grad[i] = 0
	}
	c.net.ForwardBatch(actions, outs)
	totalLoss := 0.0
	for s := 0; s < n; s++ {
		loss, g := nn.Huber(outs[s], rewards[s], nn.HuberDelta)
		totalLoss += loss
		gs[s] = g / float64(n)
	}
	c.net.BackwardBatch(actions, gs, c.grad)
	c.loss = totalLoss / float64(n)
	c.opt.Step(c.net.Params(), c.grad)
}

// ModelParams returns the live flat parameter vector θ of the policy
// network. In the federated protocol this is what leaves the device — never
// the replay buffer.
func (c *Controller) ModelParams() []float64 { return c.net.Params() }

// SetModelParams overwrites θ with the global model received from the
// aggregation server at the start of a round. Replay buffer, temperature
// schedule and optimizer state stay local, matching Algorithm 2 ("the buffer
// is maintained across all rounds and its content never leaves the device").
func (c *Controller) SetModelParams(p []float64) { c.net.SetParams(p) }

// NumParams returns the number of policy-network parameters (687 for the
// paper's 5-32-15 configuration).
func (c *Controller) NumParams() int { return c.net.NumParams() }

// Network exposes the underlying policy network for tests and diagnostics.
func (c *Controller) Network() *nn.Network { return c.net }
