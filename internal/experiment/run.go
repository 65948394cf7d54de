package experiment

import (
	"fmt"

	"fedpower/internal/core"
	"fedpower/internal/fed"
	"fedpower/internal/par"
	"fedpower/internal/stats"
	"fedpower/internal/workload"
)

// RoundEval is one per-round evaluation data point: the greedy policy's
// reward and frequency-selection statistics on that round's evaluation
// application. These points form the curves of Fig. 3 (reward) and Fig. 4
// (mean selected frequency ± std).
type RoundEval struct {
	Round        int
	App          string
	Reward       float64
	MeanNormFreq float64
	StdNormFreq  float64
}

// ScenarioResult holds the evaluation traces of one Table II scenario under
// both training regimes.
type ScenarioResult struct {
	Scenario Scenario
	// Fed is the per-round evaluation of the shared federated policy.
	Fed []RoundEval
	// Local[i] is the per-round evaluation of device i's local-only policy.
	Local [][]RoundEval
}

// AvgFedReward returns the mean federated evaluation reward across rounds.
func (r *ScenarioResult) AvgFedReward() float64 {
	return Mean(r.Fed, func(e RoundEval) float64 { return e.Reward })
}

// AvgLocalReward returns the mean local-only evaluation reward across all
// devices and rounds.
func (r *ScenarioResult) AvgLocalReward() float64 {
	var agg stats.Running
	for _, dev := range r.Local {
		for _, e := range dev {
			agg.Add(e.Reward)
		}
	}
	return agg.Mean()
}

// Mean averages f over a slice of round evaluations.
func Mean(evals []RoundEval, f func(RoundEval) float64) float64 {
	var agg stats.Running
	for _, e := range evals {
		agg.Add(f(e))
	}
	return agg.Mean()
}

// RoundsToReach returns the first round at which the mean reward over the
// preceding full window of rounds reaches the threshold, or -1 when the
// trace never does. It quantifies the paper's "faster convergence" claim:
// federated traces reach a given reward level in fewer rounds than
// local-only ones. Requiring a complete window keeps a single lucky early
// evaluation from counting as convergence; the window must be positive.
func RoundsToReach(evals []RoundEval, threshold float64, window int) int {
	if window <= 0 {
		panic(fmt.Sprintf("experiment: RoundsToReach window %d must be positive", window))
	}
	sum := 0.0
	for i, e := range evals {
		sum += e.Reward
		if i >= window {
			sum -= evals[i-window].Reward
		}
		if i+1 < window {
			continue
		}
		if sum/float64(window) >= threshold {
			return e.Round
		}
	}
	return -1
}

// RoundsToSustain returns the first round from which the trailing
// full-window mean reward stays at or above the threshold for the rest of
// the trace, or -1 when no such round exists. Unlike RoundsToReach, a
// policy that touches the threshold and later degrades (the local-only
// failure mode of Fig. 3) does not count as converged.
func RoundsToSustain(evals []RoundEval, threshold float64, window int) int {
	if window <= 0 {
		panic(fmt.Sprintf("experiment: RoundsToSustain window %d must be positive", window))
	}
	if len(evals) < window {
		return -1
	}
	// Walk backwards: find the latest point where the window mean dips
	// below the threshold; convergence starts after it.
	sustainedFrom := -1
	sum := 0.0
	for i := len(evals) - 1; i >= 0; i-- {
		sum += evals[i].Reward
		if i+window < len(evals) {
			sum -= evals[i+window].Reward
		}
		if len(evals)-i < window {
			continue
		}
		// sum now covers evals[i : i+window].
		if sum/float64(window) >= threshold {
			sustainedFrom = evals[i+window-1].Round
		} else {
			break
		}
	}
	return sustainedFrom
}

// Seed-stream identifiers for the experiment's independent random streams.
// Device streams add the device index; evaluation streams add scenario,
// setting, round and app identifiers.
const (
	idFedDevice   = 100
	idLocalDevice = 200
	idFedInit     = 900
	idLocalInit   = 910
	idEval        = 1000
)

// newFederation builds a scenario's federated arm: one training client per
// device — device i drawing from seed stream deviceBase+i — and the initial
// global model, drawn from the (idFedInit, initID) stream as a controller's
// initial weights. The caller owns the returned model.
func newFederation(o Options, sc Scenario, deviceBase, initID int64) ([]fed.Client, []float64, error) {
	clients := make([]fed.Client, len(sc.Devices))
	for i, names := range sc.Devices {
		specs, err := workload.ByNames(names...)
		if err != nil {
			return nil, nil, err
		}
		clients[i] = NewNeuralDevice(o, deviceBase+int64(i), specs)
	}
	return clients, core.InitialModel(o.Core, newRNG(o.Seed, idFedInit, initID)), nil
}

// RunScenario trains and evaluates one Table II scenario in both regimes:
//
//   - federated: all devices collaboratively optimise one shared policy
//     via FedAvg (Algorithm 2);
//   - local-only: each device independently optimises its own policy with
//     no collaboration (implemented as a federation of one, which is the
//     identity aggregation).
//
// After each round, the relevant policy snapshot is evaluated greedily on
// one of the twelve evaluation applications in rotation, as in §IV-A.
//
// The federated run and every local-only run draw from disjoint seed
// streams and write disjoint result slots, so they execute as independent
// units on the experiment worker pool (Options.Parallelism); within the
// federated unit, clients additionally train concurrently.
func RunScenario(o Options, scIndex int, sc Scenario) (*ScenarioResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	evalSet := EvalApps()
	// evalRound evaluates the snapshot g greedily after round, on the
	// round's app in rotation; setting 0 is the federated arm and i+1
	// device i's local-only arm.
	evalRound := func(setting int64, round int, g []float64) RoundEval {
		spec := evalSet[(round-1)%len(evalSet)]
		res := evaluate(o, NewNeuralPolicy(o.Core, g), spec, false, idEval, int64(scIndex), setting, int64(round))
		return RoundEval{
			Round:        round,
			App:          spec.Name,
			Reward:       res.AvgReward,
			MeanNormFreq: res.MeanNormFreq,
			StdNormFreq:  res.StdNormFreq,
		}
	}

	result := &ScenarioResult{Scenario: sc, Local: make([][]RoundEval, len(sc.Devices))}

	runFederated := func() error {
		// Federated training: one shared model across all devices.
		fedClients, global, err := newFederation(o, sc, int64(idFedDevice+10*scIndex), int64(scIndex))
		if err != nil {
			return err
		}
		err = fed.RunParallel(global, fedClients, o.Rounds, o.workers(), func(round int, g []float64) {
			result.Fed = append(result.Fed, evalRound(0, round, g))
		})
		if err != nil {
			return fmt.Errorf("experiment: federated training scenario %s: %w", sc.Name, err)
		}
		return nil
	}

	runLocal := func(devIdx int) error {
		// Local-only training: the device is its own federation of one.
		specs, err := workload.ByNames(sc.Devices[devIdx]...)
		if err != nil {
			return err
		}
		dev := NewNeuralDevice(o, int64(idLocalDevice+devIdx+10*scIndex), specs)
		local := core.InitialModel(o.Core, newRNG(o.Seed, idLocalInit, int64(scIndex), int64(devIdx)))
		err = fed.Run(local, []fed.Client{dev}, o.Rounds, func(round int, g []float64) {
			result.Local[devIdx] = append(result.Local[devIdx], evalRound(int64(devIdx+1), round, g))
		})
		if err != nil {
			return fmt.Errorf("experiment: local training scenario %s device %d: %w", sc.Name, devIdx, err)
		}
		return nil
	}

	// Unit 0 is the federated run, unit i+1 device i's local-only run.
	err := par.ForEach(o.workers(), 1+len(sc.Devices), func(unit int) error {
		if unit == 0 {
			return runFederated()
		}
		return runLocal(unit - 1)
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// Fig3Result bundles the three Table II scenario traces — the data behind
// Fig. 3 — plus the aggregate local-vs-federated improvement the paper
// summarises as "57 % average performance improvements".
type Fig3Result struct {
	Scenarios []*ScenarioResult
}

// RunFig3 runs all Table II scenarios, fanning them out on the experiment
// worker pool; the result order is the stable Table II order regardless of
// which scenario finishes first.
func RunFig3(o Options) (*Fig3Result, error) {
	scenarios := TableII()
	slots := make([]*ScenarioResult, len(scenarios))
	err := par.ForEach(o.workers(), len(scenarios), func(i int) error {
		res, err := RunScenario(o, i, scenarios[i])
		if err != nil {
			return err
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Scenarios: slots}, nil
}

// ImprovementPct returns the mean federated evaluation reward improvement
// over the local-only policies across all scenarios, in percent of the
// local-only reward (the paper's headline 57 % metric). Rewards are shifted
// into a positive range before forming the ratio when local rewards are
// negative, so the percentage stays meaningful; the shift is reported via
// the second return value.
func (f *Fig3Result) ImprovementPct() (pct float64, shifted bool) {
	var fedAgg, localAgg stats.Running
	for _, sc := range f.Scenarios {
		fedAgg.Add(sc.AvgFedReward())
		localAgg.Add(sc.AvgLocalReward())
	}
	fedMean, localMean := fedAgg.Mean(), localAgg.Mean()
	if localMean <= 0 {
		// Shift both means by 1 (the reward floor is -1) to keep the ratio
		// finite and monotone in the true gap.
		return (fedMean - localMean) / (localMean + 1) * 100, true
	}
	return (fedMean - localMean) / localMean * 100, false
}

// Fig4Result extracts the frequency-selection traces of the second scenario
// — the data behind Fig. 4.
type Fig4Result struct {
	Rounds []int
	// Normalised mean selected frequency and std per round, for device A's
	// and device B's local-only policies and the federated policy.
	LocalA, LocalAStd []float64
	LocalB, LocalBStd []float64
	Fed, FedStd       []float64
}

// Fig4FromScenario projects a scenario-2 result onto the Fig. 4 series.
func Fig4FromScenario(res *ScenarioResult) (*Fig4Result, error) {
	if len(res.Local) < 2 {
		return nil, fmt.Errorf("experiment: Fig. 4 needs two devices, scenario %s has %d", res.Scenario.Name, len(res.Local))
	}
	out := &Fig4Result{}
	for i, e := range res.Fed {
		out.Rounds = append(out.Rounds, e.Round)
		out.Fed = append(out.Fed, e.MeanNormFreq)
		out.FedStd = append(out.FedStd, e.StdNormFreq)
		out.LocalA = append(out.LocalA, res.Local[0][i].MeanNormFreq)
		out.LocalAStd = append(out.LocalAStd, res.Local[0][i].StdNormFreq)
		out.LocalB = append(out.LocalB, res.Local[1][i].MeanNormFreq)
		out.LocalBStd = append(out.LocalBStd, res.Local[1][i].StdNormFreq)
	}
	return out, nil
}
