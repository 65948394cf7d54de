// Quickstart: train the paper's RL power controller on a single simulated
// edge device and watch it learn the power-optimal DVFS policy.
//
// The device is a Jetson-Nano-class processor model running a rotation of
// SPLASH-2-style applications under a 0.6 W power budget. The controller
// starts with a uniform exploration policy and converges towards picking,
// per application, the highest V/f level that keeps power under the budget.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	"fedpower"
)

func main() {
	const (
		seed     = 1
		rounds   = 50  // training rounds to report
		steps    = 100 // control steps per round
		interval = 0.5 // DVFS control interval [s]
	)

	// The evaluation platform: 15 V/f levels from 102 to 1479 MHz.
	table := fedpower.JetsonNanoTable()
	params := fedpower.DefaultControllerParams(table.Len()) // Table I defaults

	device := fedpower.NewDevice(table, fedpower.DefaultPowerModel(), rand.New(rand.NewSource(seed)))
	ctrl := fedpower.NewController(params, rand.New(rand.NewSource(seed+1)))
	stream := fedpower.NewStream(rand.New(rand.NewSource(seed+2)), fedpower.SPLASH2())

	fmt.Printf("quickstart: %d V/f levels, %d policy parameters, P_crit = %.1f W\n\n",
		table.Len(), ctrl.NumParams(), params.Reward.PCritW)

	// Bootstrap: one observation at a mid-range level, like a default
	// governor would produce.
	device.Load(stream.Next())
	device.SetLevel(table.Len() / 2)
	obs := device.Step(interval)

	// Algorithm 1 written out line by line, to gather per-step statistics;
	// fedpower.NeuralDevice runs the same interval as a FederatedClient.
	var state []float64
	for round := 1; round <= rounds; round++ {
		var rewardSum, freqSum float64
		violations := 0
		for t := 0; t < steps; t++ {
			if device.Done() {
				device.Load(stream.Next())
			}
			state = fedpower.StateVector(obs, state)
			action := ctrl.SelectAction(state) // softmax exploration (Eq. 3)
			device.SetLevel(action)            // the DVFS action
			obs = device.Step(interval)

			r := params.Reward.Reward(obs.NormFreq, obs.PowerW) // Eq. 4
			ctrl.Observe(state, action, r)                      // replay + periodic update

			rewardSum += r
			freqSum += obs.FreqMHz
			if obs.PowerW > params.Reward.PCritW {
				violations++
			}
		}
		if round%5 == 0 {
			fmt.Printf("round %3d | avg reward %+.3f | avg freq %6.0f MHz | violations %2d/%d | tau %.3f\n",
				round, rewardSum/steps, freqSum/steps, violations, steps, ctrl.Tau())
		}
	}

	// Show the converged greedy policy per application class.
	fmt.Println("\ngreedy V/f choice per application (after training):")
	for _, spec := range fedpower.SPLASH2() {
		probe := fedpower.NewDevice(table, fedpower.DefaultPowerModel(), rand.New(rand.NewSource(99)))
		probe.Load(fedpower.NewApp(spec))
		probe.SetLevel(table.Len() / 2)
		o := probe.Step(interval)
		// One greedy decision from the observed state.
		a := ctrl.GreedyAction(fedpower.StateVector(o, nil))
		probe.SetLevel(a)
		o = probe.Step(interval)
		fmt.Printf("  %-10s -> level %2d (%6.1f MHz), power %.2f W\n",
			spec.Name, a, table.Level(a).FreqMHz, o.PowerW)
	}
}
