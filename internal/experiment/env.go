package experiment

import (
	"fedpower/internal/baseline"
	"fedpower/internal/core"
	"fedpower/internal/sim"
	"fedpower/internal/workload"
)

// bootstrapLevel is the V/f level a device starts at before the controller
// has produced its first decision — the middle of the range, mirroring a
// default OS governor starting point.
func bootstrapLevel(table *sim.VFTable) int { return table.Len() / 2 }

// NeuralDevice couples a simulated device, a workload stream and the
// paper's neural power controller. It implements fed.Client: one TrainRound
// is T environment steps of Algorithm 1 starting from the received global
// model. A local-only device is simply a federation of one (averaging a
// single model is the identity). It owns the neural control interval: the
// experiments, the central collector, the overhead probe and the deployed
// `fedpower device` all run its step.
type NeuralDevice struct {
	Dev    *sim.Device
	Ctrl   *core.Controller
	Stream *workload.Stream

	steps    int     // T
	interval float64 // Δ_DVFS

	lastObs     sim.Observation
	state       []float64
	started     bool
	roundReward float64
}

// NewNeuralDevice builds a training device for the given application set.
// id keys the device's random streams under o.Seed (see DeviceRNG).
func NewNeuralDevice(o Options, id int64, apps []workload.Spec) *NeuralDevice {
	return newNeuralDeviceWithParams(o, id, apps, o.Core)
}

// newNeuralDeviceWithParams builds a training device whose controller uses
// device-specific parameters — the hook for the heterogeneous-objective
// extension, where devices train under different power budgets.
func newNeuralDeviceWithParams(o Options, id int64, apps []workload.Spec, p core.Params) *NeuralDevice {
	dev := sim.NewDevice(o.Table, o.Power, newRNG(o.Seed, id, 1))
	if o.Thermal {
		dev.Thermal = sim.DefaultThermalModel()
	}
	ctrl := core.NewController(p, newRNG(o.Seed, id, 2))
	stream := workload.NewStream(newRNG(o.Seed, id, 3), specsOf(apps))
	return &NeuralDevice{
		Dev:      dev,
		Ctrl:     ctrl,
		Stream:   stream,
		steps:    o.StepsPerRound,
		interval: o.IntervalS,
	}
}

func specsOf(apps []workload.Spec) []workload.Spec {
	return append([]workload.Spec(nil), apps...)
}

// bootstrap loads the first application and produces the initial
// observation at the bootstrap level.
func (d *NeuralDevice) bootstrap() {
	d.Dev.Load(d.Stream.Next())
	d.Dev.SetLevel(bootstrapLevel(d.Dev.Table))
	d.lastObs = d.Dev.Step(d.interval)
	d.started = true
}

// step runs one control interval of Algorithm 1 on a bootstrapped device,
// up to its reward: reload a finished application, featurize the last
// observation into d.state, select an action with softmax exploration,
// actuate it, step the plant and reward the outcome. The caller decides
// what the sample is for.
func (d *NeuralDevice) step() (action int, reward float64) {
	if d.Dev.Done() {
		d.Dev.Load(d.Stream.Next())
	}
	d.state = core.StateVector(d.lastObs, d.state)
	action = d.Ctrl.SelectAction(d.state)
	d.Dev.SetLevel(action)
	obs := d.Dev.Step(d.interval)
	d.lastObs = obs
	return action, d.Ctrl.P.Reward.Reward(obs.NormFreq, obs.PowerW)
}

// TrainRound implements fed.Client: install the global model, run T control
// steps with softmax exploration and periodic updates, and return the
// locally optimised parameters.
func (d *NeuralDevice) TrainRound(round int, global []float64) ([]float64, error) {
	d.Ctrl.SetModelParams(global)
	if !d.started {
		d.bootstrap()
	}
	var sum float64
	for t := 0; t < d.steps; t++ {
		action, r := d.step()
		d.Ctrl.Observe(d.state, action, r)
		sum += r
	}
	d.roundReward = sum / float64(d.steps)
	return d.Ctrl.ModelParams(), nil
}

// RoundReward is the mean training reward of the last TrainRound.
func (d *NeuralDevice) RoundReward() float64 { return d.roundReward }

// TabularDevice couples a simulated device and workload stream with the
// Profit+CollabPolicy baseline agent. Rounds mirror the neural setup — T
// environment steps — followed by the CollabPolicy summary exchange, which
// the scenario runner orchestrates.
type TabularDevice struct {
	Dev    *sim.Device
	Agent  *baseline.Collab
	Stream *workload.Stream

	steps    int
	interval float64

	lastObs sim.Observation
	started bool
}

// newTabularDevice builds a baseline training device. Random streams use
// distinct identifiers from the neural devices so the two techniques see
// independent noise.
func newTabularDevice(o Options, id int64, apps []workload.Spec) *TabularDevice {
	dev := sim.NewDevice(o.Table, o.Power, newRNG(o.Seed, id, 11))
	if o.Thermal {
		dev.Thermal = sim.DefaultThermalModel()
	}
	params := baseline.DefaultProfitParams(o.Table.Len())
	params.PCritW = o.Core.Reward.PCritW
	agent := baseline.NewCollab(baseline.NewProfit(params, newRNG(o.Seed, id, 12)))
	stream := workload.NewStream(newRNG(o.Seed, id, 13), specsOf(apps))
	return &TabularDevice{
		Dev:      dev,
		Agent:    agent,
		Stream:   stream,
		steps:    o.StepsPerRound,
		interval: o.IntervalS,
	}
}

func (d *TabularDevice) bootstrap() {
	d.Dev.Load(d.Stream.Next())
	d.Dev.SetLevel(bootstrapLevel(d.Dev.Table))
	d.lastObs = d.Dev.Step(d.interval)
	d.started = true
}

// TrainRound runs T steps of ε-greedy tabular learning. The CollabPolicy
// summary/aggregate exchange happens between rounds, outside this method.
func (d *TabularDevice) TrainRound() {
	if !d.started {
		d.bootstrap()
	}
	disc := d.Agent.Local.P.Disc
	for t := 0; t < d.steps; t++ {
		if d.Dev.Done() {
			d.Dev.Load(d.Stream.Next())
		}
		key := disc.Key(d.lastObs)
		action := d.Agent.SelectAction(key)
		d.Dev.SetLevel(action)
		obs := d.Dev.Step(d.interval)
		r := d.Agent.Local.Reward(obs)
		d.Agent.Observe(key, action, r)
		d.lastObs = obs
	}
}
