// Traceanalysis: the offline-analysis workflow — train a controller,
// record a full execution trace of one application, read the trace back,
// and analyse the policy's behaviour phase by phase.
//
// It also demonstrates the trace-driven workload path: the recorded
// behaviour of the parametric `fft` model is summarised into a demand
// trace (CSV), reloaded as a TraceApp, and re-run to show both workload
// representations drive the same control loop.
//
//	go run ./examples/traceanalysis
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"fedpower"
)

const interval = 0.5

func main() {
	table := fedpower.JetsonNanoTable()
	params := fedpower.DefaultControllerParams(table.Len())

	// --- Train quickly on the full suite ---------------------------------
	opts := fedpower.DefaultOptions()
	opts.StepsPerRound = 4000
	dev := fedpower.NewNeuralDevice(opts, 1, fedpower.SPLASH2())
	if _, err := dev.TrainRound(1, dev.Ctrl.ModelParams()); err != nil {
		log.Fatal(err)
	}
	ctrl := dev.Ctrl
	fmt.Println("controller trained on 4000 control intervals")

	// --- Record a greedy fft episode as a CSV trace ----------------------
	spec, err := fedpower.AppByName("fft")
	if err != nil {
		log.Fatal(err)
	}
	var traceBuf bytes.Buffer
	rec := fedpower.NewCSVTraceRecorder(&traceBuf)
	probe := fedpower.NewDevice(table, fedpower.DefaultPowerModel(), rand.New(rand.NewSource(4)))
	probe.Load(fedpower.NewApp(spec))
	probe.SetLevel(table.Len() / 2)
	o := probe.Step(interval)
	timeS := o.ElapsedS
	step := 0
	var state []float64
	for !probe.Done() && step < 3000 {
		state = fedpower.StateVector(o, state)
		probe.SetLevel(ctrl.GreedyAction(state))
		o = probe.Step(interval)
		timeS += o.ElapsedS
		step++
		if err := rec.Record(fedpower.TraceEntry{
			Step: step, TimeS: timeS, App: spec.Name,
			Level: o.Level, FreqMHz: o.FreqMHz, PowerW: o.PowerW,
			IPC: o.IPC, MissRate: o.MissRate, MPKI: o.MPKI,
			Reward: params.Reward.Reward(o.NormFreq, o.PowerW),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := rec.Flush(); err != nil {
		log.Fatal(err)
	}

	// --- Read the trace back and analyse per MPKI regime -----------------
	entries, err := fedpower.ReadCSVTrace(&traceBuf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d control intervals (%.1f s of execution)\n\n", len(entries), entries[len(entries)-1].TimeS)

	type agg struct {
		n           int
		freq, power float64
	}
	regimes := map[string]*agg{}
	for _, e := range entries {
		key := "compute (mpki < 10)"
		if e.MPKI >= 10 {
			key = "transpose (mpki >= 10)"
		}
		a := regimes[key]
		if a == nil {
			a = &agg{}
			regimes[key] = a
		}
		a.n++
		a.freq += e.FreqMHz
		a.power += e.PowerW
	}
	fmt.Println("policy behaviour by fft phase regime:")
	for _, key := range []string{"compute (mpki < 10)", "transpose (mpki >= 10)"} {
		a := regimes[key]
		if a == nil || a.n == 0 {
			continue
		}
		fmt.Printf("  %-24s %4d intervals  mean %6.0f MHz  mean %.2f W\n",
			key, a.n, a.freq/float64(a.n), a.power/float64(a.n))
	}

	// --- Round-trip a demand trace through the TraceApp path -------------
	// Summarise the fft model into three coarse segments and replay them.
	segments := []fedpower.TraceSegment{
		{Instr: 0.40 * 2.2e10, Demand: fedpower.Demand{BaseCPI: 0.63, MPKI: 4.4, APKI: 160, MemLatencyNs: 80, Activity: 1.0}},
		{Instr: 0.20 * 2.2e10, Demand: fedpower.Demand{BaseCPI: 0.81, MPKI: 16.8, APKI: 160, MemLatencyNs: 80, Activity: 1.0}},
		{Instr: 0.40 * 2.2e10, Demand: fedpower.Demand{BaseCPI: 0.63, MPKI: 5.2, APKI: 160, MemLatencyNs: 80, Activity: 1.0}},
	}
	traceApp, err := fedpower.NewTraceApp("fft-trace", segments)
	if err != nil {
		log.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := fedpower.WriteWorkloadTraceCSV(&csvBuf, traceApp); err != nil {
		log.Fatal(err)
	}
	reloaded, err := fedpower.LoadWorkloadTraceCSV("fft-trace", &csvBuf)
	if err != nil {
		log.Fatal(err)
	}

	replay := fedpower.NewDevice(table, fedpower.DefaultPowerModel(), rand.New(rand.NewSource(5)))
	replay.Load(reloaded)
	replay.SetLevel(table.Len() / 2)
	o = replay.Step(interval)
	for !replay.Done() {
		state = fedpower.StateVector(o, state)
		replay.SetLevel(ctrl.GreedyAction(state))
		o = replay.Step(interval)
	}
	st := replay.Stats()
	fmt.Printf("\ntrace-driven replay of fft: %.1f s, avg power %.2f W (budget %.1f W)\n",
		st.TimeS, st.AvgPowerW(), params.Reward.PCritW)
}
