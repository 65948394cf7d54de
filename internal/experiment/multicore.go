package experiment

// The multi-core extension exercises the paper's actual CPU topology (four
// cores, one shared clock) with concurrent per-core workloads — a substrate
// the paper's single-threaded evaluation leaves for future work. The DVFS
// decision now trades off four applications at once under a cluster-level
// budget, and the controller observes aggregate counters.

import (
	"fmt"

	"fedpower/internal/core"
	"fedpower/internal/fed"
	"fedpower/internal/sim"
	"fedpower/internal/stats"
	"fedpower/internal/workload"
)

// MultiCoreBudgetW is the cluster-level power constraint used by the
// multi-core experiment. With four active cores sharing one rail, 1.8 W
// plays the role 0.6 W plays for a single core: compute-heavy mixes cross
// it mid-range, memory-heavy mixes fit at f_max.
const MultiCoreBudgetW = 1.8

// multiCoreParams adapts the Table I controller to the cluster budget.
func multiCoreParams(o Options) core.Params {
	p := o.Core
	p.Reward.PCritW = MultiCoreBudgetW
	p.Reward.KOffsetW = 0.15 // scale the soft band with the budget
	return p
}

// clusterDevice couples a multi-core cluster, per-core workload streams and
// one shared power controller; it implements fed.Client.
type clusterDevice struct {
	clu     *sim.MultiCoreDevice
	ctrl    *core.Controller
	streams []*workload.Stream

	steps    int
	interval float64

	lastObs sim.Observation
	state   []float64
	started bool
}

func newClusterDevice(o Options, id int64, cores int, apps []workload.Spec) *clusterDevice {
	clu := sim.NewMultiCoreDevice(o.Table, o.Power, cores, newRNG(o.Seed, id, 21))
	ctrl := core.NewController(multiCoreParams(o), newRNG(o.Seed, id, 22))
	streams := make([]*workload.Stream, cores)
	for i := range streams {
		streams[i] = workload.NewStream(newRNG(o.Seed, id, 23, int64(i)), apps)
	}
	return &clusterDevice{
		clu:      clu,
		ctrl:     ctrl,
		streams:  streams,
		steps:    o.StepsPerRound,
		interval: o.IntervalS,
	}
}

// reload tops up every completed core from its stream.
func (d *clusterDevice) reload() {
	for i := 0; i < d.clu.Cores(); i++ {
		if d.clu.CoreDone(i) {
			d.clu.LoadCore(i, d.streams[i].Next())
		}
	}
}

func (d *clusterDevice) bootstrap() {
	d.reload()
	d.clu.SetLevel(bootstrapLevel(d.clu.Table))
	d.lastObs = d.clu.Step(d.interval)
	d.started = true
}

// TrainRound implements fed.Client over the cluster. Its interval is
// NeuralDevice.step's on a different plant, a shared-clock cluster that
// reloads each core, so it keeps its own loop.
func (d *clusterDevice) TrainRound(round int, global []float64) ([]float64, error) {
	d.ctrl.SetModelParams(global)
	if !d.started {
		d.bootstrap()
	}
	for t := 0; t < d.steps; t++ {
		d.reload()
		d.state = core.StateVector(d.lastObs, d.state)
		action := d.ctrl.SelectAction(d.state)
		d.clu.SetLevel(action)
		obs := d.clu.Step(d.interval)
		r := d.ctrl.P.Reward.Reward(obs.NormFreq, obs.PowerW)
		d.ctrl.Observe(d.state, action, r)
		d.lastObs = obs
	}
	return d.ctrl.ModelParams(), nil
}

// MultiCoreResult holds the multi-core extension's per-round evaluation
// traces for the federated and local-only regimes.
type MultiCoreResult struct {
	Cores   int
	BudgetW float64
	Fed     []RoundEval
	Local   [][]RoundEval
}

// AvgFedReward returns the mean federated evaluation reward.
func (r *MultiCoreResult) AvgFedReward() float64 {
	return Mean(r.Fed, func(e RoundEval) float64 { return e.Reward })
}

// AvgLocalReward returns the mean local-only evaluation reward across
// devices.
func (r *MultiCoreResult) AvgLocalReward() float64 {
	var agg stats.Running
	for _, dev := range r.Local {
		for _, e := range dev {
			agg.Add(e.Reward)
		}
	}
	return agg.Mean()
}

// evalCluster runs the greedy policy on a fresh 4-core cluster whose cores
// are loaded with a rotating window of the evaluation suite.
func evalCluster(o Options, model []float64, cores, round int, ids ...int64) RoundEval {
	clu := sim.NewMultiCoreDevice(o.Table, o.Power, cores, newRNG(o.Seed, ids...))
	evalSet := EvalApps()
	for i := 0; i < cores; i++ {
		clu.LoadCore(i, workload.NewApp(evalSet[(round-1+i)%len(evalSet)]))
	}
	clu.SetLevel(bootstrapLevel(o.Table))
	obs := clu.Step(o.IntervalS)

	p := multiCoreParams(o)
	pol := NewNeuralPolicy(p, model)
	var reward, freq stats.Running
	for t := 0; t < o.EvalSteps && !clu.AllDone(); t++ {
		action := pol.Action(obs)
		clu.SetLevel(action)
		obs = clu.Step(o.IntervalS)
		reward.Add(p.Reward.Reward(obs.NormFreq, obs.PowerW))
		freq.Add(obs.NormFreq)
	}
	return RoundEval{
		Round:        round,
		App:          fmt.Sprintf("mix@%d", (round-1)%len(evalSet)),
		Reward:       reward.Mean(),
		MeanNormFreq: freq.Mean(),
		StdNormFreq:  freq.Std(),
	}
}

// RunMultiCore trains the split-half scenario on two 4-core clusters in
// both regimes and evaluates per round on rotating 4-application mixes
// under the cluster budget.
func RunMultiCore(o Options) (*MultiCoreResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	const cores = 4
	sc := SplitHalf()
	deviceSpecs := make([][]workload.Spec, len(sc.Devices))
	for i, names := range sc.Devices {
		specs, err := workload.ByNames(names...)
		if err != nil {
			return nil, err
		}
		deviceSpecs[i] = specs
	}

	result := &MultiCoreResult{
		Cores:   cores,
		BudgetW: MultiCoreBudgetW,
		Local:   make([][]RoundEval, len(deviceSpecs)),
	}

	// Federated.
	clients := make([]fed.Client, len(deviceSpecs))
	for i, specs := range deviceSpecs {
		clients[i] = newClusterDevice(o, int64(5000+i), cores, specs)
	}
	global := core.InitialModel(multiCoreParams(o), newRNG(o.Seed, idFedInit, 5000))
	err := fed.RunParallel(global, clients, o.Rounds, o.workers(), func(round int, g []float64) {
		result.Fed = append(result.Fed, evalCluster(o, g, cores, round, 5100, int64(round)))
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: multi-core federated training: %w", err)
	}

	// Local-only.
	for i, specs := range deviceSpecs {
		dev := newClusterDevice(o, int64(5200+i), cores, specs)
		local := append([]float64(nil), dev.ctrl.ModelParams()...)
		devIdx := i
		err := fed.Run(local, []fed.Client{dev}, o.Rounds, func(round int, g []float64) {
			result.Local[devIdx] = append(result.Local[devIdx],
				evalCluster(o, g, cores, round, 5300, int64(devIdx), int64(round)))
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: multi-core local training device %d: %w", i, err)
		}
	}
	return result, nil
}
