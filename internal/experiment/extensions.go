package experiment

// Extension experiments beyond the paper's evaluation:
//
//   - RunGovernors grounds the learned policies against classical
//     non-learning DVFS governors (the comparison the paper's introduction
//     makes qualitatively);
//   - RunHeterogeneous probes the paper's §V future-work direction,
//     "varying objectives/user preferences": devices train under
//     *different* power budgets and the shared policy is evaluated under
//     each of them.

import (
	"fmt"
	"sort"

	"fedpower/internal/core"
	"fedpower/internal/fed"
	"fedpower/internal/governor"
	"fedpower/internal/sim"
	"fedpower/internal/stats"
	"fedpower/internal/workload"
)

// governorPolicy adapts a governor to the evaluation Policy contract.
type governorPolicy struct {
	g governor.Governor
}

// NewGovernorPolicy wraps a classical governor for evaluation. Reset is
// called immediately so a reused governor starts each episode clean.
func NewGovernorPolicy(g governor.Governor) Policy {
	g.Reset()
	return &governorPolicy{g: g}
}

func (p *governorPolicy) Action(obs sim.Observation) int { return p.g.Action(obs) }

// GovernorsResult compares the federated RL policy against the classical
// governor set, every application run to completion.
type GovernorsResult struct {
	// Policies lists the comparator names in report order, the learned
	// policy first.
	Policies []string
	// PerApp[policy][app] is the run-to-completion evaluation.
	PerApp map[string]map[string]EvalResult
}

// Summary returns, per policy, the mean reward, execution time, power, and
// total budget violations across all applications.
func (r *GovernorsResult) Summary(policy string) (reward, execS, powerW float64, violations int) {
	var rw, ex, pw stats.Running
	for _, res := range r.PerApp[policy] {
		rw.Add(res.AvgReward)
		ex.Add(res.ExecTimeS)
		pw.Add(res.AvgPowerW)
		violations += res.Violations
	}
	return rw.Mean(), ex.Mean(), pw.Mean(), violations
}

// Apps returns the evaluated application names in deterministic order.
func (r *GovernorsResult) Apps() []string {
	for _, m := range r.PerApp {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		return names
	}
	return nil
}

// RunGovernors trains the federated policy on the split-half scenario,
// then evaluates it and the classical governors on every application to
// completion under the same budget.
func RunGovernors(o Options) (*GovernorsResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	final, err := trainFederated(o, 20, SplitHalf())
	if err != nil {
		return nil, err
	}

	type comparator struct {
		name string
		mk   func() Policy
	}
	comparators := []comparator{
		{"federated-rl", func() Policy { return NewNeuralPolicy(o.Core, final) }},
	}
	budget := o.Core.Reward.PCritW
	for _, g := range governor.Standard(o.Table.Len(), budget) {
		g := g
		comparators = append(comparators, comparator{g.Name(), func() Policy { return NewGovernorPolicy(g) }})
	}

	result := &GovernorsResult{PerApp: make(map[string]map[string]EvalResult)}
	for ci, c := range comparators {
		result.Policies = append(result.Policies, c.name)
		perApp := make(map[string]EvalResult)
		for appIdx, spec := range EvalApps() {
			perApp[spec.Name] = evaluate(o, c.mk(), spec, true, 7000, int64(ci), int64(appIdx))
		}
		result.PerApp[c.name] = perApp
	}
	return result, nil
}

// trainFederated runs federated training for a scenario and returns the
// final global model.
func trainFederated(o Options, scIndex int, sc Scenario) ([]float64, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	clients, global, err := newFederation(o, sc, int64(idFedDevice+10*scIndex), int64(scIndex))
	if err != nil {
		return nil, err
	}
	if err := fed.RunParallel(global, clients, o.Rounds, o.workers(), nil); err != nil {
		return nil, fmt.Errorf("experiment: federated training scenario %s: %w", sc.Name, err)
	}
	return global, nil
}

// BudgetEval summarises a policy's behaviour under one power budget.
type BudgetEval struct {
	BudgetW       float64
	AvgReward     float64 // mean Eq. (4) reward, computed against BudgetW
	ViolationRate float64 // fraction of control steps above BudgetW
	AvgPowerW     float64
}

// HeteroResult is the heterogeneous-budget extension outcome: the shared
// policy trained with per-device budgets, against a reference policy
// trained homogeneously at the mean budget, both evaluated under every
// budget.
type HeteroResult struct {
	Budgets []float64
	Hetero  []BudgetEval // hetero-trained policy under Budgets[i]
	Homog   []BudgetEval // mean-budget-trained policy under Budgets[i]
}

// RunHeterogeneous trains one federated policy with device i constrained to
// budgets[i] (every device sees the full application suite, isolating the
// budget effect from workload diversity) and a reference policy with every
// device at the mean budget, then evaluates both under each budget.
//
// Expected outcome — and the reason the paper defers this to future work —
// is that the shared model averages the devices' conflicting notions of
// "too much power": the heterogeneous policy under-performs a
// budget-matched one at the extremes because the agent state carries no
// budget feature to condition on.
func RunHeterogeneous(o Options, budgets []float64) (*HeteroResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(budgets) < 2 {
		return nil, fmt.Errorf("experiment: heterogeneous run needs >= 2 budgets, got %d", len(budgets))
	}
	for _, b := range budgets {
		if b <= 0 {
			return nil, fmt.Errorf("experiment: invalid budget %v W", b)
		}
	}

	train := func(deviceBudgets []float64, baseID int64) ([]float64, error) {
		clients := make([]fed.Client, len(deviceBudgets))
		for i, b := range deviceBudgets {
			p := o.Core
			p.Reward.PCritW = b
			clients[i] = newNeuralDeviceWithParams(o, baseID+int64(i), workload.SPLASH2(), p)
		}
		global := core.InitialModel(o.Core, newRNG(o.Seed, idFedInit, baseID))
		if err := fed.RunParallel(global, clients, o.Rounds, o.workers(), nil); err != nil {
			return nil, err
		}
		return global, nil
	}

	heteroModel, err := train(budgets, 3000)
	if err != nil {
		return nil, fmt.Errorf("experiment: heterogeneous training: %w", err)
	}
	mean := stats.Mean(budgets)
	homogBudgets := make([]float64, len(budgets))
	for i := range homogBudgets {
		homogBudgets[i] = mean
	}
	homogModel, err := train(homogBudgets, 4000)
	if err != nil {
		return nil, fmt.Errorf("experiment: homogeneous reference training: %w", err)
	}

	evalUnder := func(model []float64, budget float64, id int64) BudgetEval {
		eo := o
		eo.Core.Reward.PCritW = budget
		var rw, pw stats.Running
		steps, violations := 0, 0
		for appIdx, spec := range EvalApps() {
			res := evaluate(eo, NewNeuralPolicy(o.Core, model), spec, false, 8000, id, int64(appIdx))
			rw.Add(res.AvgReward)
			pw.Add(res.AvgPowerW)
			steps += res.Steps
			violations += res.Violations
		}
		rate := 0.0
		if steps > 0 {
			rate = float64(violations) / float64(steps)
		}
		return BudgetEval{
			BudgetW:       budget,
			AvgReward:     rw.Mean(),
			ViolationRate: rate,
			AvgPowerW:     pw.Mean(),
		}
	}

	out := &HeteroResult{Budgets: append([]float64(nil), budgets...)}
	for i, b := range budgets {
		out.Hetero = append(out.Hetero, evalUnder(heteroModel, b, int64(100+i)))
		out.Homog = append(out.Homog, evalUnder(homogModel, b, int64(200+i)))
	}
	return out, nil
}
