package experiment

import (
	"fmt"
	"sort"

	"fedpower/internal/baseline"
	"fedpower/internal/fed"
	"fedpower/internal/par"
	"fedpower/internal/stats"
	"fedpower/internal/workload"
)

// AppMetrics accumulates run-to-completion evaluation metrics for one
// application under one technique, across evaluation points (and devices,
// for the baseline whose local tables differ per device).
type AppMetrics struct {
	Exec  stats.Running // execution time [s]
	IPS   stats.Running // instructions per second
	Power stats.Running // average power [W]
}

// ComparisonResult holds the per-application metrics of our federated
// neural controller ("Ours") and the Profit+CollabPolicy baseline on one
// scenario.
type ComparisonResult struct {
	Scenario Scenario
	Ours     map[string]*AppMetrics
	Base     map[string]*AppMetrics
}

// Apps returns the evaluated application names in deterministic order.
func (c *ComparisonResult) Apps() []string {
	names := make([]string, 0, len(c.Ours))
	for n := range c.Ours {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TechAverages aggregates one technique's per-application metrics into the
// three Table III rows: mean execution time, mean IPS and mean power.
func TechAverages(m map[string]*AppMetrics) (execS, ips, powerW float64) {
	var e, i, p stats.Running
	for _, am := range m {
		e.Add(am.Exec.Mean())
		i.Add(am.IPS.Mean())
		p.Add(am.Power.Mean())
	}
	return e.Mean(), i.Mean(), p.Mean()
}

// RunComparison trains both techniques on one scenario and evaluates every
// evaluation application to completion at regular round intervals
// (ExecEvalEvery), averaging execution time, IPS and power over the
// evaluation points — the measurement protocol behind Table III and Fig. 5.
func RunComparison(o Options, scIndex int, sc Scenario) (*ComparisonResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	result := &ComparisonResult{
		Scenario: sc,
		Ours:     make(map[string]*AppMetrics),
		Base:     make(map[string]*AppMetrics),
	}
	evalSet := EvalApps()
	for _, spec := range evalSet {
		result.Ours[spec.Name] = &AppMetrics{}
		result.Base[spec.Name] = &AppMetrics{}
	}

	record := func(m map[string]*AppMetrics, app string, res EvalResult) {
		am := m[app]
		am.Exec.Add(res.ExecTimeS)
		am.IPS.Add(res.AvgIPS)
		am.Power.Add(res.AvgPowerW)
	}

	// Ours and the baseline share no state — each technique records into
	// its own metrics map from its own seed streams — so the two train as
	// independent units on the experiment worker pool.
	runOurs := func() error {
		// Federated neural controller.
		fedClients, global, err := newFederation(o, sc, int64(idFedDevice+10*scIndex), int64(scIndex))
		if err != nil {
			return err
		}
		err = fed.RunParallel(global, fedClients, o.Rounds, o.workers(), func(round int, g []float64) {
			if round%o.ExecEvalEvery != 0 {
				return
			}
			pol := NewNeuralPolicy(o.Core, g)
			for appIdx, spec := range evalSet {
				res := evaluate(o, pol, spec, true, idEval+1, int64(scIndex), int64(round), int64(appIdx))
				record(result.Ours, spec.Name, res)
			}
		})
		if err != nil {
			return fmt.Errorf("experiment: comparison federated training scenario %s: %w", sc.Name, err)
		}
		return nil
	}

	runBase := func() error {
		// Baseline: Profit + CollabPolicy.
		devices := make([]*TabularDevice, len(sc.Devices))
		for i, names := range sc.Devices {
			specs, err := workload.ByNames(names...)
			if err != nil {
				return err
			}
			devices[i] = newTabularDevice(o, int64(idFedDevice+i+10*scIndex), specs)
		}
		for round := 1; round <= o.Rounds; round++ {
			// One round of local optimisation on every device, then the
			// CollabPolicy exchange: summaries up, merged global policy down.
			summaries := make([]baseline.LocalSummary, len(devices))
			for i, d := range devices {
				d.TrainRound()
				summaries[i] = d.Agent.Summary()
			}
			globalPolicy := baseline.Aggregate(summaries)
			for _, d := range devices {
				d.Agent.SetGlobal(globalPolicy)
			}

			if round%o.ExecEvalEvery != 0 {
				continue
			}
			// Evaluate each device's agent (local tables differ across devices
			// even though the global policy is shared) and average.
			for devIdx, d := range devices {
				pol := NewTabularPolicy(d.Agent)
				for appIdx, spec := range evalSet {
					res := evaluate(o, pol, spec, true, idEval+2, int64(scIndex), int64(round), int64(appIdx), int64(devIdx))
					record(result.Base, spec.Name, res)
				}
			}
		}
		return nil
	}

	err := par.ForEach(o.workers(), 2, func(unit int) error {
		if unit == 0 {
			return runOurs()
		}
		return runBase()
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// Table3Result aggregates the comparison over all Table II scenarios into
// the three rows of Table III.
type Table3Result struct {
	PerScenario []*ComparisonResult

	OursExecS, BaseExecS   float64
	OursIPS, BaseIPS       float64
	OursPowerW, BasePowerW float64
}

// ExecDeltaPct returns the execution-time change of ours vs the baseline in
// percent (negative = faster, the paper reports ↓ 20 %).
func (t *Table3Result) ExecDeltaPct() float64 {
	return stats.PercentDelta(t.OursExecS, t.BaseExecS)
}

// IPSDeltaPct returns the IPS change of ours vs the baseline in percent
// (positive = higher throughput, the paper reports ↑ 17 %).
func (t *Table3Result) IPSDeltaPct() float64 {
	return stats.PercentDelta(t.OursIPS, t.BaseIPS)
}

// PowerDeltaPct returns the power change of ours vs the baseline in percent
// (the paper reports ↑ 9 %, both under the constraint).
func (t *Table3Result) PowerDeltaPct() float64 {
	return stats.PercentDelta(t.OursPowerW, t.BasePowerW)
}

// RunTable3 runs the comparison on all three Table II scenarios and
// averages, reproducing Table III. Scenarios fan out on the experiment
// worker pool; the averages consume the per-scenario results in stable
// Table II order.
func RunTable3(o Options) (*Table3Result, error) {
	scenarios := TableII()
	slots := make([]*ComparisonResult, len(scenarios))
	err := par.ForEach(o.workers(), len(scenarios), func(i int) error {
		res, err := RunComparison(o, i, scenarios[i])
		if err != nil {
			return err
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Table3Result{}
	var oe, oi, op, be, bi, bp stats.Running
	for _, res := range slots {
		out.PerScenario = append(out.PerScenario, res)
		e, ips, p := TechAverages(res.Ours)
		oe.Add(e)
		oi.Add(ips)
		op.Add(p)
		e, ips, p = TechAverages(res.Base)
		be.Add(e)
		bi.Add(ips)
		bp.Add(p)
	}
	out.OursExecS, out.OursIPS, out.OursPowerW = oe.Mean(), oi.Mean(), op.Mean()
	out.BaseExecS, out.BaseIPS, out.BasePowerW = be.Mean(), bi.Mean(), bp.Mean()
	return out, nil
}

// Fig5Result holds the per-application comparison of the split-half
// scenario (six training applications per device) — the data behind Fig. 5.
type Fig5Result struct {
	Comparison *ComparisonResult
}

// RunFig5 runs the split-half comparison.
func RunFig5(o Options) (*Fig5Result, error) {
	res, err := RunComparison(o, 7, SplitHalf())
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Comparison: res}, nil
}

// MeanExecSpeedupPct returns the average and maximum per-application
// execution-time reduction of ours vs the baseline in percent (the paper
// reports 22 % average, 53 % maximum).
func (f *Fig5Result) MeanExecSpeedupPct() (avg, max float64) {
	var agg stats.Running
	for _, app := range f.Comparison.Apps() {
		base := f.Comparison.Base[app].Exec.Mean()
		ours := f.Comparison.Ours[app].Exec.Mean()
		if base <= 0 {
			continue
		}
		red := (base - ours) / base * 100
		agg.Add(red)
		if red > max {
			max = red
		}
	}
	return agg.Mean(), max
}

// MeanIPSGainPct returns the average and maximum per-application IPS
// increase of ours vs the baseline in percent (paper: 29 % / 95 %).
func (f *Fig5Result) MeanIPSGainPct() (avg, max float64) {
	var agg stats.Running
	for _, app := range f.Comparison.Apps() {
		base := f.Comparison.Base[app].IPS.Mean()
		ours := f.Comparison.Ours[app].IPS.Mean()
		if base <= 0 {
			continue
		}
		gain := (ours - base) / base * 100
		agg.Add(gain)
		if gain > max {
			max = gain
		}
	}
	return agg.Mean(), max
}
