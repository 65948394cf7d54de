package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedpower/internal/nn"
	"fedpower/internal/sim"
	"fedpower/internal/workload"
)

func newTestController(t *testing.T) *Controller {
	t.Helper()
	return NewController(Defaults(15), rand.New(rand.NewSource(1)))
}

func TestDefaultsMatchTableI(t *testing.T) {
	p := Defaults(15)
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"learning rate", p.LearningRate, 0.005},
		{"tau max", p.TauMax, 0.9},
		{"tau decay", p.TauDecay, 0.0005},
		{"tau min", p.TauMin, 0.01},
		{"replay capacity", float64(p.ReplayCapacity), 4000},
		{"batch size", float64(p.BatchSize), 128},
		{"optimisation interval", float64(p.OptimInterval), 20},
		{"hidden layers", float64(p.HiddenLayers), 1},
		{"hidden neurons", float64(p.HiddenNeurons), 32},
		{"P_crit", p.Reward.PCritW, 0.6},
		{"k_offset", p.Reward.KOffsetW, 0.05},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("Table I %s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if p.Exploration != ExploreSoftmax {
		t.Error("default exploration must be softmax (Eq. 3)")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := Defaults(15).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.LearningRate = 0 },
		func(p *Params) { p.TauMax = 0 },
		func(p *Params) { p.TauMin = 0 },
		func(p *Params) { p.TauMin = p.TauMax + 1 },
		func(p *Params) { p.TauDecay = -1 },
		func(p *Params) { p.ReplayCapacity = 0 },
		func(p *Params) { p.BatchSize = -5 },
		func(p *Params) { p.OptimInterval = 0 },
		func(p *Params) { p.HiddenLayers = -1 },
		func(p *Params) { p.HiddenLayers = 2; p.HiddenNeurons = 0 },
		func(p *Params) { p.Actions = 1 },
		func(p *Params) { p.Reward.PCritW = 0 },
	}
	for i, mutate := range mutations {
		p := Defaults(15)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d validated although invalid", i)
		}
	}
}

func TestValidateEpsilonGreedy(t *testing.T) {
	p := Defaults(15).WithEpsilonGreedy()
	if err := p.Validate(); err != nil {
		t.Fatalf("epsilon-greedy defaults invalid: %v", err)
	}
	p.EpsilonMax = 1.5
	if err := p.Validate(); err == nil {
		t.Error("epsilon max > 1 validated")
	}
	p = Defaults(15).WithEpsilonGreedy()
	p.EpsilonMin = 0
	if err := p.Validate(); err == nil {
		t.Error("epsilon min 0 validated")
	}
}

func TestNewControllerPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewController with invalid params did not panic")
		}
	}()
	p := Defaults(15)
	p.BatchSize = 0
	NewController(p, rand.New(rand.NewSource(1)))
}

func TestNumParamsIs687(t *testing.T) {
	c := newTestController(t)
	if c.NumParams() != 687 {
		t.Fatalf("NumParams = %d, want 687 (5-32-15 network)", c.NumParams())
	}
}

func TestTauSchedule(t *testing.T) {
	c := newTestController(t)
	if got := c.Tau(); got != 0.9 {
		t.Fatalf("initial tau = %v, want 0.9", got)
	}
	state := make([]float64, StateDim)
	// Advance 1000 steps: tau = 0.9·exp(-0.0005·1000) ≈ 0.5459.
	for i := 0; i < 1000; i++ {
		c.Observe(state, 0, 0.5)
	}
	want := 0.9 * math.Exp(-0.5)
	if math.Abs(c.Tau()-want) > 1e-9 {
		t.Fatalf("tau after 1000 steps = %v, want %v", c.Tau(), want)
	}
}

func TestTauFloor(t *testing.T) {
	p := Defaults(15)
	p.TauDecay = 0.1 // fast decay to hit the floor quickly
	c := NewController(p, rand.New(rand.NewSource(1)))
	state := make([]float64, StateDim)
	for i := 0; i < 200; i++ {
		c.Observe(state, 0, 0.5)
	}
	if c.Tau() != p.TauMin {
		t.Fatalf("tau = %v, want floor %v", c.Tau(), p.TauMin)
	}
}

func TestPolicyIsDistribution(t *testing.T) {
	c := newTestController(t)
	state := []float64{0.5, 0.4, 0.6, 0.1, 0.3}
	probs := c.Policy(state)
	if len(probs) != 15 {
		t.Fatalf("policy over %d actions, want 15", len(probs))
	}
	sum := 0.0
	for a, p := range probs {
		if p < 0 || p > 1 {
			t.Errorf("probs[%d] = %v outside [0,1]", a, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("policy sums to %v, want 1", sum)
	}
}

func TestPolicyTemperatureControlsEntropy(t *testing.T) {
	// At high temperature the softmax is near uniform; at low temperature
	// it concentrates on the argmax.
	p := Defaults(15)
	c := NewController(p, rand.New(rand.NewSource(2)))
	state := []float64{0.5, 0.4, 0.6, 0.1, 0.3}

	entropy := func(probs []float64) float64 {
		h := 0.0
		for _, q := range probs {
			if q > 0 {
				h -= q * math.Log(q)
			}
		}
		return h
	}
	hHigh := entropy(c.policyAt(state, 10))
	hLow := entropy(c.policyAt(state, 0.01))
	if hHigh <= hLow {
		t.Fatalf("entropy at tau=10 (%v) should exceed entropy at tau=0.01 (%v)", hHigh, hLow)
	}
	uniform := math.Log(15)
	if math.Abs(hHigh-uniform) > 0.05 {
		t.Errorf("high-temperature entropy %v, want near ln(15)=%v", hHigh, uniform)
	}
}

func TestGreedyIsArgmax(t *testing.T) {
	c := newTestController(t)
	state := []float64{0.2, 0.8, 0.3, 0.05, 0.9}
	mu := append([]float64(nil), c.Predict(state)...)
	best := 0
	for a := 1; a < len(mu); a++ {
		if mu[a] > mu[best] {
			best = a
		}
	}
	if got := c.GreedyAction(state); got != best {
		t.Fatalf("GreedyAction = %d, want argmax %d", got, best)
	}
}

func TestSelectActionInRange(t *testing.T) {
	c := newTestController(t)
	state := []float64{0.5, 0.3, 0.6, 0.1, 0.2}
	for i := 0; i < 500; i++ {
		a := c.SelectAction(state)
		if a < 0 || a >= 15 {
			t.Fatalf("action %d out of range", a)
		}
	}
}

func TestSelectActionExploresEarly(t *testing.T) {
	// At tau_max = 0.9 and untrained outputs, action selection should be
	// spread over many levels, not collapsed.
	c := newTestController(t)
	state := []float64{0.5, 0.3, 0.6, 0.1, 0.2}
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		seen[c.SelectAction(state)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("early exploration touched only %d/15 actions", len(seen))
	}
}

func TestObserveBadActionPanics(t *testing.T) {
	c := newTestController(t)
	state := make([]float64, StateDim)
	for _, a := range []int{-1, 15, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Observe(action=%d) did not panic", a)
				}
			}()
			c.Observe(state, a, 0)
		}()
	}
}

func TestObserveNonFiniteRejected(t *testing.T) {
	c := newTestController(t)
	cases := []struct {
		name   string
		state  []float64
		reward float64
	}{
		{"NaN reward", make([]float64, StateDim), math.NaN()},
		{"Inf reward", make([]float64, StateDim), math.Inf(1)},
		{"NaN state", []float64{math.NaN(), 0, 0, 0, 0}, 0.5},
		{"Inf state", []float64{0, math.Inf(-1), 0, 0, 0}, 0.5},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Observe did not panic", tc.name)
				}
			}()
			c.Observe(tc.state, 0, tc.reward)
		}()
	}
}

func TestUpdateEmptyBufferIsNoop(t *testing.T) {
	c := newTestController(t)
	before := append([]float64(nil), c.ModelParams()...)
	c.Update()
	after := c.ModelParams()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Update on empty buffer changed parameters")
		}
	}
}

func TestObserveTriggersUpdateEveryH(t *testing.T) {
	p := Defaults(15)
	p.OptimInterval = 5
	c := NewController(p, rand.New(rand.NewSource(3)))
	state := []float64{0.5, 0.3, 0.6, 0.1, 0.2}
	before := append([]float64(nil), c.ModelParams()...)
	for i := 0; i < 4; i++ {
		c.Observe(state, 2, 0.7)
	}
	unchanged := true
	for i, v := range c.ModelParams() {
		if v != before[i] {
			unchanged = false
			break
		}
	}
	if !unchanged {
		t.Fatal("parameters changed before the H-th step")
	}
	c.Observe(state, 2, 0.7) // 5th step: update fires
	changed := false
	for i, v := range c.ModelParams() {
		if v != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("parameters unchanged after the H-th step")
	}
	if c.LastLoss() <= 0 {
		t.Errorf("LastLoss = %v after an update on non-zero errors", c.LastLoss())
	}
}

func TestModelParamsRoundTrip(t *testing.T) {
	a := NewController(Defaults(15), rand.New(rand.NewSource(1)))
	b := NewController(Defaults(15), rand.New(rand.NewSource(2)))
	b.SetModelParams(a.ModelParams())
	state := []float64{0.4, 0.3, 0.5, 0.1, 0.2}
	pa := append([]float64(nil), a.Predict(state)...)
	pb := b.Predict(state)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("predictions differ after parameter transfer at %d", i)
		}
	}
}

// TestControllerLearnsContextualBandit is the package's behavioural
// acceptance test: on a synthetic two-context bandit where context 0
// rewards action 3 and context 1 rewards action 11, the controller must
// learn to pick each context's best action greedily.
func TestControllerLearnsContextualBandit(t *testing.T) {
	p := Defaults(15)
	p.TauDecay = 0.002 // faster schedule for a shorter test
	rng := rand.New(rand.NewSource(5))
	c := NewController(p, rng)

	context := func(k int) []float64 {
		if k == 0 {
			return []float64{0.1, 0.2, 0.9, 0.05, 0.1}
		}
		return []float64{0.9, 0.7, 0.2, 0.25, 0.8}
	}
	banditReward := func(ctx, action int) float64 {
		best := 3
		if ctx == 1 {
			best = 11
		}
		// Reward decreases with distance from the context's best action.
		return 1 - 0.15*math.Abs(float64(action-best)) + rng.NormFloat64()*0.02
	}

	for step := 0; step < 4000; step++ {
		ctx := step % 2
		s := context(ctx)
		a := c.SelectAction(s)
		c.Observe(s, a, banditReward(ctx, a))
	}

	if got := c.GreedyAction(context(0)); got < 2 || got > 4 {
		t.Errorf("context 0 greedy action %d, want near 3", got)
	}
	if got := c.GreedyAction(context(1)); got < 10 || got > 12 {
		t.Errorf("context 1 greedy action %d, want near 11", got)
	}
}

func TestDeeperNetworkTrains(t *testing.T) {
	// The paper uses one hidden layer; the implementation supports more.
	// A two-hidden-layer controller must build the right parameter count
	// and still learn the synthetic bandit.
	p := Defaults(15)
	p.HiddenLayers = 2
	p.TauDecay = 0.002
	rng := rand.New(rand.NewSource(21))
	c := NewController(p, rng)
	// 5·32+32 + 32·32+32 + 32·15+15 = 192 + 1056 + 495 = 1743.
	if got := c.NumParams(); got != 1743 {
		t.Fatalf("two-hidden-layer NumParams = %d, want 1743", got)
	}
	state := []float64{0.2, 0.4, 0.8, 0.1, 0.3}
	for step := 0; step < 3000; step++ {
		a := c.SelectAction(state)
		r := 1 - 0.15*math.Abs(float64(a-6)) + rng.NormFloat64()*0.02
		c.Observe(state, a, r)
	}
	if got := c.GreedyAction(state); got < 5 || got > 7 {
		t.Errorf("deep controller greedy action %d, want near 6", got)
	}
}

func TestEpsilonGreedyMode(t *testing.T) {
	p := Defaults(15).WithEpsilonGreedy()
	p.EpsilonDecay = 0.05
	c := NewController(p, rand.New(rand.NewSource(6)))
	if c.Epsilon() != 1.0 {
		t.Fatalf("initial epsilon = %v, want 1", c.Epsilon())
	}
	state := make([]float64, StateDim)
	for i := 0; i < 500; i++ {
		a := c.SelectAction(state)
		if a < 0 || a >= 15 {
			t.Fatalf("epsilon-greedy action %d out of range", a)
		}
		c.Observe(state, a, 0.1)
	}
	if c.Epsilon() != p.EpsilonMin {
		t.Fatalf("epsilon after decay = %v, want floor %v", c.Epsilon(), p.EpsilonMin)
	}
	// With epsilon at the floor, selection is almost always greedy.
	greedy := c.GreedyAction(state)
	match := 0
	for i := 0; i < 200; i++ {
		if c.SelectAction(state) == greedy {
			match++
		}
	}
	if match < 180 {
		t.Fatalf("only %d/200 selections greedy at floor epsilon", match)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		c := NewController(Defaults(15), rand.New(rand.NewSource(9)))
		state := []float64{0.5, 0.4, 0.3, 0.2, 0.1}
		for i := 0; i < 100; i++ {
			a := c.SelectAction(state)
			c.Observe(state, a, float64(a)/15)
		}
		return append([]float64(nil), c.ModelParams()...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different trajectories")
		}
	}
}

// Property: the softmax policy is invariant to adding a constant to all
// predicted rewards (shift invariance of Eq. 3) — checked indirectly via
// two controllers whose outputs differ by a constant bias.
func TestPolicyShiftInvarianceProperty(t *testing.T) {
	c := newTestController(t)
	f := func(s0, s1, s2, s3, s4 float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(math.Abs(x), 1)
		}
		state := []float64{clamp(s0), clamp(s1), clamp(s2), clamp(s3), clamp(s4)}
		probs := append([]float64(nil), c.Policy(state)...)
		sum := 0.0
		for _, p := range probs {
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateBatchBitIdentical: a controller training on the batched Update
// path (the default) must reproduce the scalar reference path bit for bit
// — identical parameter vectors and losses over a full training run with
// softmax exploration, replay wraparound and periodic updates, because
// both paths perform the same replay draws from the same rng stream and
// the same float operations in the same per-accumulator order. Part of the
// determinism replay gate (-count=2).
func TestUpdateBatchBitIdentical(t *testing.T) {
	run := func(scalar bool) *Controller {
		p := Defaults(15)
		p.ScalarUpdate = scalar
		p.BatchSize = 32
		p.ReplayCapacity = 100 // wrap the ring several times
		p.OptimInterval = 5
		c := NewController(p, rand.New(rand.NewSource(11)))
		env := rand.New(rand.NewSource(12))
		state := make([]float64, StateDim)
		for step := 0; step < 400; step++ {
			for j := range state {
				state[j] = env.Float64()
			}
			a := c.SelectAction(state)
			c.Observe(state, a, env.Float64()*2-1)
		}
		return c
	}
	batched, scalar := run(false), run(true)
	bp, sp := batched.ModelParams(), scalar.ModelParams()
	for i := range bp {
		if bp[i] != sp[i] {
			t.Fatalf("params[%d] = %x batched, %x scalar", i, bp[i], sp[i])
		}
	}
	if batched.LastLoss() != scalar.LastLoss() {
		t.Fatalf("last loss %x batched, %x scalar", batched.LastLoss(), scalar.LastLoss())
	}
}

// TestUpdateAllocationFree pins the training hot path's steady-state
// allocation guarantee end to end for both Update implementations —
// replay sampling, forward, loss, backward and the Adam step — at the
// paper's batch size and either side of it.
func TestUpdateAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scalar bool
		batch  int
	}{{"batched", false, 128}, {"scalar", true, 128}, {"batch32", false, 32}, {"batch512", false, 512}} {
		p := Defaults(15)
		p.ScalarUpdate = tc.scalar
		p.BatchSize = tc.batch
		p.OptimInterval = 1 << 30 // no automatic updates; we call Update directly
		c := NewController(p, rand.New(rand.NewSource(13)))
		env := rand.New(rand.NewSource(14))
		state := make([]float64, StateDim)
		for i := 0; i < 500; i++ {
			for j := range state {
				state[j] = env.Float64()
			}
			c.Observe(state, env.Intn(15), env.Float64()*2-1)
		}
		c.Update() // grow the batch scratch once
		if avg := testing.AllocsPerRun(50, c.Update); avg != 0 {
			t.Errorf("%s Update allocates %.1f times per call, want 0", tc.name, avg)
		}
	}
}

// TestControlStepAllocationFree pins the other on-device cost of §IV-C: one
// control decision — state build, inference, softmax sampling — allocates
// nothing once the state vector exists, and neither does the deployed
// greedy decision (state build, inference, argmax).
func TestControlStepAllocationFree(t *testing.T) {
	c := NewController(Defaults(15), rand.New(rand.NewSource(13)))
	obs := sim.Observation{NormFreq: 0.6, PowerW: 0.5, IPC: 1.2, MissRate: 0.05, MPKI: 6}
	state := StateVector(obs, nil)
	if avg := testing.AllocsPerRun(100, func() {
		state = StateVector(obs, state)
		_ = c.SelectAction(state)
	}); avg != 0 {
		t.Errorf("StateVector+SelectAction allocates %.1f times per step, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		state = StateVector(obs, state)
		_ = c.GreedyAction(state)
	}); avg != 0 {
		t.Errorf("StateVector+GreedyAction allocates %.1f times per step, want 0", avg)
	}
}

// plainAdam is nn.Adam's update as the plain loop, with none of the
// stuck-moment skipping of nn.Adam.Step: the optimiser an aged controller
// is compared against.
type plainAdam struct {
	nn.Adam
	t    int
	m, v []float64
}

func (a *plainAdam) Step(params, grad []float64) {
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

func (a *plainAdam) Reset() { a.m, a.v, a.t = nil, nil, 0 }

// TestAgedControllerBitIdentical trains one controller for 150 000 control
// steps of Algorithm 1 — built from public parts as examples/quickstart is —
// well past update ≈ 6 640, where the first Adam moments of zero-gradient
// parameters get stuck in the subnormal range and nn.Adam.Step starts
// skipping them. The same run on the plain loop must take the same actions
// and end on the same parameter bits. Part of the determinism replay gate.
func TestAgedControllerBitIdentical(t *testing.T) {
	const steps = 150000
	run := func(opt nn.Optimizer) (*Controller, []uint8) {
		table := sim.JetsonNanoTable()
		p := Defaults(table.Len())
		dev := sim.NewDevice(table, sim.DefaultPowerModel(), rand.New(rand.NewSource(1)))
		c := NewController(p, rand.New(rand.NewSource(2)))
		if opt != nil {
			c.opt = opt
		}
		stream := workload.NewStream(rand.New(rand.NewSource(3)), workload.SPLASH2())
		dev.Load(stream.Next())
		dev.SetLevel(table.Len() / 2)
		obs := dev.Step(0.5)
		actions := make([]uint8, steps)
		var state []float64
		for i := range actions {
			if dev.Done() {
				dev.Load(stream.Next())
			}
			state = StateVector(obs, state)
			a := c.SelectAction(state)
			dev.SetLevel(a)
			obs = dev.Step(0.5)
			c.Observe(state, a, p.Reward.Reward(obs.NormFreq, obs.PowerW))
			actions[i] = uint8(a)
		}
		return c, actions
	}
	plain := &plainAdam{Adam: *nn.NewAdam(Defaults(15).LearningRate)}
	got, gotActions := run(nil)
	want, wantActions := run(plain)

	// β₁ = 0.9 leaves a decaying moment on 5·2⁻¹⁰⁷⁴ (1 … 5 are its fixed
	// points); the comparison means nothing unless the run got there.
	stuck := 0
	for _, m := range plain.m {
		if b := math.Float64bits(math.Abs(m)); b >= 1 && b <= 5 {
			stuck++
		}
	}
	if stuck < len(plain.m)/10 {
		t.Fatalf("only %d of %d first moments are stuck after %d steps", stuck, len(plain.m), steps)
	}
	for i := range wantActions {
		if gotActions[i] != wantActions[i] {
			t.Fatalf("step %d: action %d, plain loop %d", i, gotActions[i], wantActions[i])
		}
	}
	gp, wp := got.ModelParams(), want.ModelParams()
	for i := range wp {
		if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
			t.Fatalf("params[%d] = %x, plain loop %x", i, gp[i], wp[i])
		}
	}
	t.Logf("%d of %d first moments stuck", stuck, len(plain.m))
}
