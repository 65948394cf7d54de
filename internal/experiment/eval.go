package experiment

import (
	"fedpower/internal/baseline"
	"fedpower/internal/core"
	"fedpower/internal/nn"
	"fedpower/internal/sim"
	"fedpower/internal/stats"
	"fedpower/internal/workload"
)

// Policy is a frozen DVFS policy under evaluation: a pure function from
// observation to V/f level. During evaluation "the policies are not updated
// and the agents consistently exploit the action with the highest predicted
// reward" (§IV-A).
type Policy interface {
	Action(obs sim.Observation) int
}

// neuralPolicy evaluates a parameter snapshot of the neural controller on
// the bare policy network: no replay buffer, optimiser or random source.
type neuralPolicy struct {
	net   *nn.Network
	state []float64
}

// NewNeuralPolicy wraps a copy of a model-parameter snapshot in a greedy
// evaluation policy. It panics on invalid parameters, as NewController
// does, and on a model that does not fit them.
func NewNeuralPolicy(p core.Params, model []float64) Policy {
	if err := p.Validate(); err != nil {
		panic("experiment: evaluation policy: " + err.Error())
	}
	return &neuralPolicy{net: core.NewPolicyNetwork(p, model)}
}

func (p *neuralPolicy) Action(obs sim.Observation) int {
	p.state = core.StateVector(obs, p.state)
	return core.Greedy(p.net.Forward(p.state))
}

// tabularPolicy evaluates a Profit+CollabPolicy agent greedily.
type tabularPolicy struct {
	agent *baseline.Collab
}

// NewTabularPolicy wraps a CollabPolicy agent in a greedy evaluation policy.
// The agent is consulted read-only.
func NewTabularPolicy(agent *baseline.Collab) Policy {
	return &tabularPolicy{agent: agent}
}

func (p *tabularPolicy) Action(obs sim.Observation) int {
	return p.agent.GreedyAction(p.agent.Local.P.Disc.Key(obs))
}

// EvalResult summarises one evaluation episode of a policy on one
// application.
type EvalResult struct {
	App          string
	Steps        int     // control steps taken (excluding bootstrap)
	Completed    bool    // whether the application retired all instructions
	AvgReward    float64 // mean Eq. (4) reward per step
	MeanNormFreq float64 // mean selected f/f_max
	StdNormFreq  float64 // std of selected f/f_max
	ExecTimeS    float64 // executed wall-clock time (full run when Completed)
	AvgIPS       float64 // mean instructions per second
	AvgPowerW    float64 // mean power draw
	Violations   int     // steps with measured power above P_crit
}

// evaluate runs pol on one instance of spec. With toCompletion the episode
// runs until the application retires all instructions (bounded by
// MaxExecSteps as a safety net); otherwise it stops after EvalSteps control
// steps. The episode uses its own device and noise stream derived from the
// given ids, so evaluations never perturb training state.
func evaluate(o Options, pol Policy, spec workload.Spec, toCompletion bool, ids ...int64) EvalResult {
	dev := sim.NewDevice(o.Table, o.Power, newRNG(o.Seed, ids...))
	if o.Thermal {
		dev.Thermal = sim.DefaultThermalModel()
	}
	dev.Load(workload.NewApp(spec))
	dev.SetLevel(bootstrapLevel(o.Table))
	obs := dev.Step(o.IntervalS)

	maxSteps := o.EvalSteps
	if toCompletion {
		maxSteps = o.MaxExecSteps
	}

	var reward stats.Running
	var freq stats.Running
	violations := 0
	steps := 0
	for steps < maxSteps && !dev.Done() {
		action := pol.Action(obs)
		dev.SetLevel(action)
		obs = dev.Step(o.IntervalS)
		reward.Add(o.Core.Reward.Reward(obs.NormFreq, obs.PowerW))
		freq.Add(obs.NormFreq)
		if obs.PowerW > o.Core.Reward.PCritW {
			violations++
		}
		steps++
	}

	st := dev.Stats()
	return EvalResult{
		App:          spec.Name,
		Steps:        steps,
		Completed:    dev.Done(),
		AvgReward:    reward.Mean(),
		MeanNormFreq: freq.Mean(),
		StdNormFreq:  freq.Std(),
		ExecTimeS:    st.TimeS,
		AvgIPS:       st.AvgIPS(),
		AvgPowerW:    st.AvgPowerW(),
		Violations:   violations,
	}
}
