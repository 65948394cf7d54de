package experiment

import (
	"fedpower/internal/sim"
	"fedpower/internal/trace"
	"fedpower/internal/workload"
)

// RecordEpisode trains the federated policy on the split-half scenario,
// then runs one greedy episode of the named application to completion,
// recording every control interval to rec. It returns the number of
// recorded steps. This is the library's "export a trace for offline
// analysis" entry point (cmd/fedpower trace).
func RecordEpisode(o Options, appName string, rec trace.Recorder) (int, error) {
	if err := o.Validate(); err != nil {
		return 0, err
	}
	spec, err := workload.ByName(appName)
	if err != nil {
		return 0, err
	}
	model, err := trainFederated(o, 30, SplitHalf())
	if err != nil {
		return 0, err
	}
	return RecordPolicyEpisode(o, NewNeuralPolicy(o.Core, model), spec, rec)
}

// RecordPolicyEpisode runs one greedy episode of spec under an arbitrary
// policy, recording each interval. The episode runs to completion, bounded
// by MaxExecSteps.
func RecordPolicyEpisode(o Options, pol Policy, spec workload.Spec, rec trace.Recorder) (int, error) {
	dev := sim.NewDevice(o.Table, o.Power, newRNG(o.Seed, 6000))
	if o.Thermal {
		dev.Thermal = sim.DefaultThermalModel()
	}
	dev.Load(workload.NewApp(spec))
	dev.SetLevel(bootstrapLevel(o.Table))
	obs := dev.Step(o.IntervalS)

	timeS := obs.ElapsedS
	steps := 0
	for steps < o.MaxExecSteps && !dev.Done() {
		action := pol.Action(obs)
		dev.SetLevel(action)
		obs = dev.Step(o.IntervalS)
		timeS += obs.ElapsedS
		steps++
		entry := trace.Entry{
			Step:     steps,
			TimeS:    timeS,
			App:      spec.Name,
			Level:    obs.Level,
			FreqMHz:  obs.FreqMHz,
			PowerW:   obs.PowerW,
			IPC:      obs.IPC,
			MissRate: obs.MissRate,
			MPKI:     obs.MPKI,
			Reward:   o.Core.Reward.Reward(obs.NormFreq, obs.PowerW),
		}
		if err := rec.Record(entry); err != nil {
			return steps, err
		}
	}
	if err := rec.Flush(); err != nil {
		return steps, err
	}
	return steps, nil
}
