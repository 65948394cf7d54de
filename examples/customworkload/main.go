// Customworkload: the library's extension points — define your own
// application model, your own V/f table, and a tighter power budget, then
// train the controller against them.
//
// The example models a hypothetical edge video-analytics pipeline with
// three phases (decode: memory-heavy; inference: compute-heavy; encode:
// mixed) on a processor with 10 V/f levels, under a 0.45 W budget, and
// compares the learned policy's per-phase frequency choices against the
// analytic optimum.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fedpower"
)

func main() {
	// --- A custom processor: 10 levels, 200–1400 MHz, 0.75–1.15 V --------
	levels := make([]fedpower.VFLevel, 10)
	for i := range levels {
		f := 200 + float64(i)*(1400-200)/9
		levels[i] = fedpower.VFLevel{
			FreqMHz: f,
			VoltV:   0.75 + 0.40*f/1400,
		}
	}
	table, err := fedpower.NewVFTable(levels)
	if err != nil {
		log.Fatal(err)
	}

	// --- A custom application: three-phase video analytics ---------------
	pipeline := fedpower.AppSpec{
		Name:         "video-analytics",
		BaseCPI:      0.72,
		MPKI:         9,
		APKI:         180,
		MemLatencyNs: 80,
		Activity:     1.0,
		TotalInstr:   1.5e10,
		Phases: []fedpower.AppPhase{
			{Fraction: 0.25, CPIMul: 1.05, MPKIMul: 2.2}, // decode: streaming, memory-heavy
			{Fraction: 0.55, CPIMul: 0.85, MPKIMul: 0.3}, // inference: dense compute
			{Fraction: 0.20, CPIMul: 1.00, MPKIMul: 1.2}, // encode: mixed
		},
	}

	// --- A tighter budget and Table-I-style controller -------------------
	params := fedpower.DefaultControllerParams(table.Len())
	params.Reward = fedpower.RewardParams{PCritW: 0.45, KOffsetW: 0.04}

	fmt.Printf("custom platform: %d levels (%.0f-%.0f MHz), budget %.2f W\n\n",
		table.Len(), table.MinFreqMHz(), table.MaxFreqMHz(), params.Reward.PCritW)

	// Train on back-to-back pipeline executions: one local round of 6000
	// control intervals on the platform.
	opts := fedpower.DefaultOptions()
	opts.Seed = 3
	opts.Table, opts.Core, opts.StepsPerRound = table, params, 6000
	dev := fedpower.NewNeuralDevice(opts, 1, []fedpower.AppSpec{pipeline})
	if _, err := dev.TrainRound(1, dev.Ctrl.ModelParams()); err != nil {
		log.Fatal(err)
	}
	ctrl := dev.Ctrl

	// Per phase: the policy's settled frequency choice vs the analytic
	// optimum. The controller reacts to counter readings with one interval
	// of lag, so we aggregate over each phase rather than sampling its
	// first decision.
	fmt.Println("phase-by-phase policy after training (aggregated over each phase):")
	phaseNames := []string{"decode (memory)", "inference (compute)", "encode (mixed)"}
	probe := fedpower.NewDevice(table, opts.Power, rand.New(rand.NewSource(5)))
	app := fedpower.NewApp(pipeline)
	probe.Load(app)
	probe.SetLevel(table.Len() / 2)
	o := probe.Step(opts.IntervalS)
	type phaseAgg struct {
		freqSum, powSum float64
		steps           int
		opt             int
	}
	aggs := make([]phaseAgg, len(pipeline.Phases))
	var state []float64
	for !probe.Done() {
		// The decision for this interval is made on the previous
		// observation; attribute the outcome to the phase it executed in.
		state = fedpower.StateVector(o, state)
		a := ctrl.GreedyAction(state)
		probe.SetLevel(a)
		phase := phaseIndex(app.Progress(), pipeline.Phases)
		aggs[phase].opt = probe.OptimalLevel(app.Demand(), params.Reward.PCritW)
		o = probe.Step(opts.IntervalS)
		aggs[phase].freqSum += o.FreqMHz
		aggs[phase].powSum += o.PowerW
		aggs[phase].steps++
	}
	for i, agg := range aggs {
		if agg.steps == 0 {
			continue
		}
		n := float64(agg.steps)
		fmt.Printf("  %-20s mean %6.0f MHz at %.2f W  | analytic optimum %6.0f MHz\n",
			phaseNames[i], agg.freqSum/n, agg.powSum/n, table.Level(agg.opt).FreqMHz)
	}
	st := probe.Stats()
	fmt.Printf("\nfull pipeline run: %.1f s, avg power %.2f W (budget %.2f W)\n",
		st.TimeS, st.AvgPowerW(), params.Reward.PCritW)
}

func phaseIndex(progress float64, phases []fedpower.AppPhase) int {
	acc := 0.0
	for i, p := range phases {
		acc += p.Fraction
		if progress < acc {
			return i
		}
	}
	return len(phases) - 1
}
