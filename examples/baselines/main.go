// Baselines: run the paper's state-of-the-art comparison point —
// Profit (tabular RL, Chen et al.) extended with CollabPolicy knowledge
// sharing (Tian et al.) — side by side with the federated neural controller
// on scenario 2 of Table II, and print the Table-III-style metrics.
//
//	go run ./examples/baselines
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fedpower"
)

const (
	rounds   = 60
	steps    = 100
	interval = 0.5
)

func main() {
	table := fedpower.JetsonNanoTable()
	pm := fedpower.DefaultPowerModel()
	scenario := fedpower.TableII()[1] // water-ns/water-sp vs ocean/radix

	fmt.Printf("scenario %s: device A %v, device B %v\n\n",
		scenario.Name, scenario.Devices[0], scenario.Devices[1])

	// --- Train Profit+CollabPolicy on two devices ------------------------
	type tabDevice struct {
		dev    *fedpower.Device
		agent  *fedpower.Collab
		stream *fedpower.Stream
		obs    fedpower.Observation
	}
	devices := make([]*tabDevice, 2)
	for i := range devices {
		specs := resolve(scenario.Devices[i])
		p := fedpower.DefaultProfitParams(table.Len())
		d := &tabDevice{
			dev:    fedpower.NewDevice(table, pm, rand.New(rand.NewSource(int64(100+i)))),
			agent:  fedpower.NewCollab(fedpower.NewProfit(p, rand.New(rand.NewSource(int64(200+i))))),
			stream: fedpower.NewStream(rand.New(rand.NewSource(int64(300+i))), specs),
		}
		d.dev.Load(d.stream.Next())
		d.dev.SetLevel(table.Len() / 2)
		d.obs = d.dev.Step(interval)
		devices[i] = d
	}

	for round := 1; round <= rounds; round++ {
		summaries := make([]fedpower.CollabSummary, len(devices))
		for i, d := range devices {
			disc := d.agent.Local.P.Disc
			for t := 0; t < steps; t++ {
				if d.dev.Done() {
					d.dev.Load(d.stream.Next())
				}
				key := disc.Key(d.obs)
				a := d.agent.SelectAction(key)
				d.dev.SetLevel(a)
				d.obs = d.dev.Step(interval)
				d.agent.Observe(key, a, d.agent.Local.Reward(d.obs))
			}
			summaries[i] = d.agent.Summary()
		}
		global := fedpower.CollabAggregate(summaries)
		for _, d := range devices {
			d.agent.SetGlobal(global)
		}
	}
	fmt.Printf("Profit+CollabPolicy trained: device A visited %d states, device B %d, global policy %d states\n",
		devices[0].agent.Local.States(), devices[1].agent.Local.States(), devices[0].agent.GlobalSize())

	// --- Train the federated neural controller on the same scenario ------
	params := fedpower.DefaultControllerParams(table.Len())
	opts := fedpower.DefaultOptions()
	opts.Seed = 400
	clients := make([]fedpower.FederatedClient, 2)
	for i := range clients {
		clients[i] = fedpower.NewNeuralDevice(opts, int64(i), resolve(scenario.Devices[i]))
	}
	global := fedpower.NewController(params, rand.New(rand.NewSource(999))).ModelParams()
	globalCopy := append([]float64(nil), global...)
	if err := fedpower.FederatedRun(globalCopy, clients, rounds, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("federated neural controller trained")

	// --- Evaluate both to completion on every application ----------------
	fmt.Println("\nrun-to-completion evaluation on all twelve applications:")
	fmt.Printf("%-10s  %14s  %14s  %10s  %10s\n", "app", "exec ours [s]", "exec P+C [s]", "P ours [W]", "P P+C [W]")

	neuralCtrl := fedpower.NewController(params, rand.New(rand.NewSource(0)))
	neuralCtrl.SetModelParams(globalCopy)

	var sumOurs, sumBase float64
	for _, spec := range fedpower.SPLASH2() {
		ours := runToCompletion(table, pm, spec, func(obs fedpower.Observation) int {
			return neuralCtrl.GreedyAction(fedpower.StateVector(obs, nil))
		})
		base := runToCompletion(table, pm, spec, func(obs fedpower.Observation) int {
			return devices[0].agent.GreedyAction(devices[0].agent.Local.P.Disc.Key(obs))
		})
		sumOurs += ours.TimeS
		sumBase += base.TimeS
		fmt.Printf("%-10s  %14.1f  %14.1f  %10.3f  %10.3f\n",
			spec.Name, ours.TimeS, base.TimeS, ours.AvgPowerW(), base.AvgPowerW())
	}
	fmt.Printf("\ntotal execution time: ours %.0f s vs Profit+CollabPolicy %.0f s (%+.0f%%)\n",
		sumOurs, sumBase, (sumOurs-sumBase)/sumBase*100)
}

func resolve(names []string) []fedpower.AppSpec {
	specs := make([]fedpower.AppSpec, len(names))
	for i, n := range names {
		s, err := fedpower.AppByName(n)
		if err != nil {
			log.Fatal(err)
		}
		specs[i] = s
	}
	return specs
}

type deviceStats struct {
	TimeS   float64
	EnergyJ float64
}

func (s deviceStats) AvgPowerW() float64 {
	if s.TimeS == 0 { //fedlint:ignore floateq exact zero guards the division below
		return 0
	}
	return s.EnergyJ / s.TimeS
}

func runToCompletion(table *fedpower.VFTable, pm fedpower.PowerModel, spec fedpower.AppSpec, policy func(fedpower.Observation) int) deviceStats {
	dev := fedpower.NewDevice(table, pm, rand.New(rand.NewSource(777)))
	dev.Load(fedpower.NewApp(spec))
	dev.SetLevel(table.Len() / 2)
	obs := dev.Step(interval)
	for steps := 0; steps < 5000 && !dev.Done(); steps++ {
		dev.SetLevel(policy(obs))
		obs = dev.Step(interval)
	}
	st := dev.Stats()
	return deviceStats{TimeS: st.TimeS, EnergyJ: st.EnergyJ}
}
