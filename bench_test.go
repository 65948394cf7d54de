package fedpower_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`) and adds ablation benchmarks
// for the design choices called out in DESIGN.md. Experiment benchmarks
// report their headline quantity via b.ReportMetric (e.g. avg_reward,
// exec_s) so the bench output doubles as a results table; EXPERIMENTS.md
// records a full reference run. None of them is a gate: how fast the hot
// paths are is fedbench's to judge (bench/, `make bench`), and that they
// allocate nothing is asserted by the AllocFree tests of internal/core,
// nn, replay and fed.

import (
	"fmt"
	"math/rand"
	"testing"

	"fedpower"
)

// benchOptions returns a reduced training budget so one benchmark iteration
// stays around a hundred milliseconds while remaining large enough for the
// federated-vs-local gap to emerge. The full paper budget (R=100, T=100) is
// exercised by cmd/fedpower.
func benchOptions() fedpower.Options {
	o := fedpower.DefaultOptions()
	o.Rounds = 40
	o.StepsPerRound = 100
	o.EvalSteps = 15
	o.ExecEvalEvery = 10
	return o
}

// --------------------------------------------------------------------------
// Per-figure / per-table benchmarks

// BenchmarkFig2RewardDistribution regenerates the Fig. 2 reward-signal grid
// over the 15 Jetson Nano V/f levels.
func BenchmarkFig2RewardDistribution(b *testing.B) {
	table := fedpower.JetsonNanoTable()
	rp := fedpower.RewardParams{PCritW: 0.6, KOffsetW: 0.05}
	var res *fedpower.Fig2Result
	for i := 0; i < b.N; i++ {
		res = fedpower.RunFig2(table, rp, 33)
	}
	b.ReportMetric(res.Reward[14][0], "reward_fmax_0W")
}

// BenchmarkFig3LocalVsFederated runs one Table II scenario in both regimes
// (the Fig. 3 comparison) at the reduced budget and reports the average
// evaluation rewards.
func BenchmarkFig3LocalVsFederated(b *testing.B) {
	o := benchOptions()
	var fed, local float64
	for i := 0; i < b.N; i++ {
		res, err := fedpower.RunScenario(o, 1, fedpower.TableII()[1])
		if err != nil {
			b.Fatal(err)
		}
		fed, local = res.AvgFedReward(), res.AvgLocalReward()
	}
	b.ReportMetric(fed, "fed_avg_reward")
	b.ReportMetric(local, "local_avg_reward")
}

// BenchmarkFig4FrequencySelection regenerates the scenario-2 frequency
// traces and reports the mean selected frequency gap between the
// memory-trained local policy and the federated one.
func BenchmarkFig4FrequencySelection(b *testing.B) {
	o := benchOptions()
	var localB, fed float64
	for i := 0; i < b.N; i++ {
		res, err := fedpower.RunScenario(o, 1, fedpower.TableII()[1])
		if err != nil {
			b.Fatal(err)
		}
		f4, err := fedpower.Fig4FromScenario(res)
		if err != nil {
			b.Fatal(err)
		}
		localB, fed = mean(f4.LocalB), mean(f4.Fed)
	}
	b.ReportMetric(localB, "localB_norm_freq")
	b.ReportMetric(fed, "fed_norm_freq")
}

// BenchmarkTable3VsStateOfTheArt runs the Profit+CollabPolicy comparison on
// one scenario and reports the Table III quantities.
func BenchmarkTable3VsStateOfTheArt(b *testing.B) {
	o := benchOptions()
	var oursExec, baseExec float64
	for i := 0; i < b.N; i++ {
		res, err := fedpower.RunTable3(o)
		if err != nil {
			b.Fatal(err)
		}
		oursExec, baseExec = res.OursExecS, res.BaseExecS
	}
	b.ReportMetric(oursExec, "ours_exec_s")
	b.ReportMetric(baseExec, "baseline_exec_s")
}

// BenchmarkFig5PerApplication runs the split-half per-application
// comparison and reports the average execution-time reduction.
func BenchmarkFig5PerApplication(b *testing.B) {
	o := benchOptions()
	var avgSpeedup float64
	for i := 0; i < b.N; i++ {
		res, err := fedpower.RunFig5(o)
		if err != nil {
			b.Fatal(err)
		}
		avgSpeedup, _ = res.MeanExecSpeedupPct()
	}
	b.ReportMetric(avgSpeedup, "exec_reduction_pct")
}

// BenchmarkPolicyUpdateBatch scales the mini-batch update across batch
// sizes around the paper's C_B = 128, pinning the batched kernels' cost
// model (the ns/op floor is the Adam step over 687 parameters, the slope
// is the per-sample kernel work).
func BenchmarkPolicyUpdateBatch(b *testing.B) {
	for _, batch := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			table := fedpower.JetsonNanoTable()
			params := fedpower.DefaultControllerParams(table.Len())
			params.BatchSize = batch
			params.OptimInterval = 1 << 30
			ctrl := fedpower.NewController(params, rand.New(rand.NewSource(1)))
			rng := rand.New(rand.NewSource(2))
			state := make([]float64, fedpower.StateDim)
			for i := 0; i < params.ReplayCapacity; i++ {
				for j := range state {
					state[j] = rng.Float64()
				}
				ctrl.Observe(state, rng.Intn(table.Len()), rng.Float64()*2-1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctrl.Update()
			}
		})
	}
}

// BenchmarkPrivacyArchitectures runs the local / federated / central
// comparison and reports each architecture's final reward plus the raw
// bytes the central architecture exposes (the federated figure is 0 by
// construction).
func BenchmarkPrivacyArchitectures(b *testing.B) {
	o := benchOptions()
	var res *fedpower.PrivacyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = fedpower.RunPrivacy(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Local.AvgReward, "local_reward")
	b.ReportMetric(res.Federated.AvgReward, "fed_reward")
	b.ReportMetric(res.Central.AvgReward, "central_reward")
	b.ReportMetric(float64(res.Central.RawTraceBytes), "central_raw_B")
}

// BenchmarkExtensionGovernors runs the classical-governor comparison and
// reports the learned policy's reward against the reactive power capper.
func BenchmarkExtensionGovernors(b *testing.B) {
	o := benchOptions()
	var rl, cap_ float64
	for i := 0; i < b.N; i++ {
		res, err := fedpower.RunGovernors(o)
		if err != nil {
			b.Fatal(err)
		}
		rl, _, _, _ = res.Summary("federated-rl")
		cap_, _, _, _ = res.Summary("powercap")
	}
	b.ReportMetric(rl, "rl_reward")
	b.ReportMetric(cap_, "powercap_reward")
}

// BenchmarkExtensionHeterogeneousBudgets runs the future-work experiment
// and reports the tight-budget violation rates of the heterogeneous- and
// mean-trained policies.
func BenchmarkExtensionHeterogeneousBudgets(b *testing.B) {
	o := benchOptions()
	var hetero, homog float64
	for i := 0; i < b.N; i++ {
		res, err := fedpower.RunHeterogeneous(o, []float64{0.45, 0.75})
		if err != nil {
			b.Fatal(err)
		}
		hetero = res.Hetero[0].ViolationRate
		homog = res.Homog[0].ViolationRate
	}
	b.ReportMetric(hetero*100, "hetero_tight_viol_pct")
	b.ReportMetric(homog*100, "homog_tight_viol_pct")
}

// --------------------------------------------------------------------------
// Ablation benchmarks (design choices from DESIGN.md)

// ablationRun trains scenario 2 federated-only with modified options and
// returns the average federated evaluation reward.
func ablationRun(b *testing.B, mutate func(*fedpower.Options)) float64 {
	b.Helper()
	o := benchOptions()
	mutate(&o)
	res, err := fedpower.RunScenario(o, 1, fedpower.TableII()[1])
	if err != nil {
		b.Fatal(err)
	}
	return res.AvgFedReward()
}

// BenchmarkAblationHardReward compares the paper's soft constraint (Eq. 4)
// against a hard -1 cut-off. The soft variant should train at least as well
// — the paper's argument for gradual penalties.
func BenchmarkAblationHardReward(b *testing.B) {
	var soft, hard float64
	for i := 0; i < b.N; i++ {
		soft = ablationRun(b, func(o *fedpower.Options) {})
		hard = ablationRun(b, func(o *fedpower.Options) { o.Core.Reward.Hard = true })
	}
	b.ReportMetric(soft, "soft_reward")
	b.ReportMetric(hard, "hard_reward")
}

// BenchmarkAblationEpsilonGreedy compares softmax exploration (Eq. 3)
// against ε-greedy on the neural agent.
func BenchmarkAblationEpsilonGreedy(b *testing.B) {
	var softmax, eps float64
	for i := 0; i < b.N; i++ {
		softmax = ablationRun(b, func(o *fedpower.Options) {})
		eps = ablationRun(b, func(o *fedpower.Options) { o.Core = o.Core.WithEpsilonGreedy() })
	}
	b.ReportMetric(softmax, "softmax_reward")
	b.ReportMetric(eps, "epsgreedy_reward")
}

// BenchmarkAblationSyncInterval compares aggregating every round against
// aggregating four times less often at the same total environment budget.
func BenchmarkAblationSyncInterval(b *testing.B) {
	var everyRound, sparse float64
	for i := 0; i < b.N; i++ {
		everyRound = ablationRun(b, func(o *fedpower.Options) {})
		sparse = ablationRun(b, func(o *fedpower.Options) {
			o.Rounds /= 4
			o.StepsPerRound *= 4
		})
	}
	b.ReportMetric(everyRound, "sync_every_round")
	b.ReportMetric(sparse, "sync_every_4_rounds")
}

// BenchmarkAblationReplayCapacity sweeps the replay capacity around the
// paper's C = 4000.
func BenchmarkAblationReplayCapacity(b *testing.B) {
	var small, paper float64
	for i := 0; i < b.N; i++ {
		small = ablationRun(b, func(o *fedpower.Options) { o.Core.ReplayCapacity = 250 })
		paper = ablationRun(b, func(o *fedpower.Options) {})
	}
	b.ReportMetric(small, "capacity_250")
	b.ReportMetric(paper, "capacity_4000")
}

// BenchmarkAblationParticipation compares the paper's full-participation
// protocol against FedAvg-style 50 % client sampling at the same round
// budget, on a four-device split (three apps each).
func BenchmarkAblationParticipation(b *testing.B) {
	apps := [][]string{
		{"fft", "lu", "raytrace"},
		{"volrend", "water-ns", "water-sp"},
		{"ocean", "radix", "fmm"},
		{"radiosity", "barnes", "cholesky"},
	}
	run := func(fraction float64) float64 {
		o := benchOptions()
		table := o.Table
		params := o.Core
		type devState struct {
			dev    *fedpower.Device
			ctrl   *fedpower.Controller
			stream *fedpower.Stream
			obs    fedpower.Observation
			state  []float64
		}
		clients := make([]fedpower.FederatedClient, len(apps))
		for i, names := range apps {
			specs := make([]fedpower.AppSpec, len(names))
			for j, n := range names {
				spec, err := fedpower.AppByName(n)
				if err != nil {
					b.Fatal(err)
				}
				specs[j] = spec
			}
			ds := &devState{
				dev:    fedpower.NewDevice(table, o.Power, rand.New(rand.NewSource(int64(100+i)))),
				ctrl:   fedpower.NewController(params, rand.New(rand.NewSource(int64(200+i)))),
				stream: fedpower.NewStream(rand.New(rand.NewSource(int64(300+i))), specs),
			}
			ds.dev.Load(ds.stream.Next())
			ds.dev.SetLevel(table.Len() / 2)
			ds.obs = ds.dev.Step(o.IntervalS)
			clients[i] = fedpower.FederatedClientFunc(func(round int, global []float64) ([]float64, error) {
				ds.ctrl.SetModelParams(global)
				for t := 0; t < o.StepsPerRound; t++ {
					if ds.dev.Done() {
						ds.dev.Load(ds.stream.Next())
					}
					ds.state = fedpower.StateVector(ds.obs, ds.state)
					a := ds.ctrl.SelectAction(ds.state)
					ds.dev.SetLevel(a)
					ds.obs = ds.dev.Step(o.IntervalS)
					ds.ctrl.Observe(ds.state, a, params.Reward.Reward(ds.obs.NormFreq, ds.obs.PowerW))
				}
				return ds.ctrl.ModelParams(), nil
			})
		}
		global := fedpower.NewController(params, rand.New(rand.NewSource(999))).ModelParams()
		globalCopy := append([]float64(nil), global...)
		err := fedpower.FederatedRunSampled(globalCopy, clients, fraction, o.Rounds, rand.New(rand.NewSource(5)), nil)
		if err != nil {
			b.Fatal(err)
		}
		// Evaluate the final model greedily on every application.
		ctrl := fedpower.NewController(params, rand.New(rand.NewSource(0)))
		ctrl.SetModelParams(globalCopy)
		var sum float64
		var n int
		for ai, spec := range fedpower.SPLASH2() {
			dev := fedpower.NewDevice(table, o.Power, rand.New(rand.NewSource(int64(700+ai))))
			dev.Load(fedpower.NewApp(spec))
			dev.SetLevel(table.Len() / 2)
			obs := dev.Step(o.IntervalS)
			var state []float64
			for t := 0; t < o.EvalSteps && !dev.Done(); t++ {
				state = fedpower.StateVector(obs, state)
				dev.SetLevel(ctrl.GreedyAction(state))
				obs = dev.Step(o.IntervalS)
				sum += params.Reward.Reward(obs.NormFreq, obs.PowerW)
				n++
			}
		}
		return sum / float64(n)
	}
	var full, half float64
	for i := 0; i < b.N; i++ {
		full = run(1.0)
		half = run(0.5)
	}
	b.ReportMetric(full, "full_participation")
	b.ReportMetric(half, "half_participation")
}

// BenchmarkAblationThermal quantifies what the paper's §III-A footnote
// neglects: with the lumped-RC thermal model and leakage-temperature
// feedback enabled, the plant is no longer stationary within a workload,
// so the contextual-bandit formulation is an approximation. The reward gap
// between the two rows is the cost of that approximation.
func BenchmarkAblationThermal(b *testing.B) {
	var isothermal, thermal float64
	for i := 0; i < b.N; i++ {
		isothermal = ablationRun(b, func(o *fedpower.Options) {})
		thermal = ablationRun(b, func(o *fedpower.Options) { o.Thermal = true })
	}
	b.ReportMetric(isothermal, "isothermal_reward")
	b.ReportMetric(thermal, "thermal_reward")
}

// BenchmarkAblationHiddenWidth sweeps the hidden-layer width around the
// paper's 32 neurons.
func BenchmarkAblationHiddenWidth(b *testing.B) {
	var w8, w32, w128 float64
	for i := 0; i < b.N; i++ {
		w8 = ablationRun(b, func(o *fedpower.Options) { o.Core.HiddenNeurons = 8 })
		w32 = ablationRun(b, func(o *fedpower.Options) {})
		w128 = ablationRun(b, func(o *fedpower.Options) { o.Core.HiddenNeurons = 128 })
	}
	b.ReportMetric(w8, "width_8")
	b.ReportMetric(w32, "width_32")
	b.ReportMetric(w128, "width_128")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
