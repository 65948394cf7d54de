package experiment

import (
	"testing"

	"fedpower/internal/workload"
)

// smallOptions returns a reduced-budget configuration that keeps the
// behavioural structure (two devices, rotation evaluation) while running in
// well under a second.
func smallOptions() Options {
	o := DefaultOptions()
	o.Rounds = 12
	o.StepsPerRound = 40
	o.EvalSteps = 15
	o.ExecEvalEvery = 6
	o.Seed = 1
	return o
}

func TestRunScenarioShapes(t *testing.T) {
	o := smallOptions()
	res, err := RunScenario(o, 0, TableII()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fed) != o.Rounds {
		t.Fatalf("fed trace has %d rounds, want %d", len(res.Fed), o.Rounds)
	}
	if len(res.Local) != 2 {
		t.Fatalf("%d local traces, want 2", len(res.Local))
	}
	for d, trace := range res.Local {
		if len(trace) != o.Rounds {
			t.Fatalf("local device %d trace has %d rounds", d, len(trace))
		}
	}
	// Round numbering and app rotation follow the paper's protocol.
	evalSet := EvalApps()
	for i, e := range res.Fed {
		if e.Round != i+1 {
			t.Errorf("fed round %d labelled %d", i+1, e.Round)
		}
		if e.App != evalSet[i%len(evalSet)].Name {
			t.Errorf("round %d evaluated %s, want rotation %s", e.Round, e.App, evalSet[i%len(evalSet)].Name)
		}
		if e.Reward < -1 || e.Reward > 1 {
			t.Errorf("round %d reward %v outside [-1, 1]", e.Round, e.Reward)
		}
		if e.MeanNormFreq < 0 || e.MeanNormFreq > 1 {
			t.Errorf("round %d mean norm freq %v outside [0, 1]", e.Round, e.MeanNormFreq)
		}
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	o := smallOptions()
	a, err := RunScenario(o, 0, TableII()[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(o, 0, TableII()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Fed {
		if a.Fed[i] != b.Fed[i] {
			t.Fatalf("fed round %d differs across identical runs", i+1)
		}
	}
	for d := range a.Local {
		for i := range a.Local[d] {
			if a.Local[d][i] != b.Local[d][i] {
				t.Fatalf("local device %d round %d differs", d, i+1)
			}
		}
	}
}

func TestRunScenarioValidatesInput(t *testing.T) {
	o := smallOptions()
	o.Rounds = 0
	if _, err := RunScenario(o, 0, TableII()[0]); err == nil {
		t.Error("invalid options accepted")
	}
	if _, err := RunScenario(smallOptions(), 0, Scenario{Name: "bad", Devices: [][]string{{"doom"}}}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// TestFederatedBeatsLocalOnScenario2 is the behavioural heart of Fig. 3:
// with the memory-vs-compute split of scenario 2, federated training must
// outperform the local-only policies on the full evaluation suite. Run at a
// reduced but still meaningful budget; the experiment is fully
// deterministic, so this is not flaky.
func TestFederatedBeatsLocalOnScenario2(t *testing.T) {
	if testing.Short() {
		t.Skip("training comparison skipped in -short mode")
	}
	o := smallOptions()
	o.Rounds = 40
	o.StepsPerRound = 100
	res, err := RunScenario(o, 1, TableII()[1])
	if err != nil {
		t.Fatal(err)
	}
	fed := res.AvgFedReward()
	local := res.AvgLocalReward()
	if fed <= local {
		t.Fatalf("federated avg reward %v does not beat local-only %v", fed, local)
	}
	// The gap must be material, not a rounding fluke (the paper reports a
	// 57 % improvement at the full budget).
	if fed-local < 0.05 {
		t.Fatalf("federated advantage too small: fed %v vs local %v", fed, local)
	}
}

func TestFig3RunsAllScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario training skipped in -short mode")
	}
	o := smallOptions()
	o.Rounds = 6
	res, err := RunFig3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 3 {
		t.Fatalf("%d scenarios, want 3", len(res.Scenarios))
	}
	if _, shifted := res.ImprovementPct(); shifted {
		// Informational: at tiny budgets local rewards may dip negative;
		// the shifted ratio must still be finite.
		t.Log("improvement used the shifted ratio")
	}
}

func TestFig4FromScenario(t *testing.T) {
	o := smallOptions()
	res, err := RunScenario(o, 1, TableII()[1])
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Fig4FromScenario(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Rounds) != o.Rounds {
		t.Fatalf("fig4 has %d rounds, want %d", len(f4.Rounds), o.Rounds)
	}
	for i := range f4.Rounds {
		for _, v := range []float64{f4.LocalA[i], f4.LocalB[i], f4.Fed[i]} {
			if v < 0 || v > 1 {
				t.Fatalf("normalised frequency %v outside [0, 1] at round %d", v, i+1)
			}
		}
	}
}

func TestFig4RequiresTwoDevices(t *testing.T) {
	res := &ScenarioResult{
		Scenario: Scenario{Name: "x"},
		Local:    [][]RoundEval{{}},
	}
	if _, err := Fig4FromScenario(res); err == nil {
		t.Fatal("single-device scenario accepted for Fig. 4")
	}
}

func TestRoundsToReach(t *testing.T) {
	mk := func(rewards ...float64) []RoundEval {
		out := make([]RoundEval, len(rewards))
		for i, r := range rewards {
			out[i] = RoundEval{Round: i + 1, Reward: r}
		}
		return out
	}
	cases := []struct {
		name      string
		evals     []RoundEval
		threshold float64
		window    int
		want      int
	}{
		{"immediate", mk(0.6, 0.7), 0.5, 1, 1},
		{"later", mk(0.1, 0.2, 0.8), 0.5, 1, 3},
		{"never", mk(0.1, 0.2, 0.3), 0.5, 1, -1},
		// A single early spike must NOT count: the full 3-round window
		// around it averages below the threshold.
		{"spike ignored", mk(0.9, 0.0, 0.0, 0.0), 0.5, 3, -1},
		{"window delays", mk(0.0, 0.9, 0.9, 0.9), 0.8, 3, 4},
		{"full window required", mk(0.9, 0.9), 0.5, 3, -1},
		{"window boundary", mk(0.6, 0.6, 0.6), 0.5, 3, 3},
		{"empty", nil, 0.5, 2, -1},
	}
	for _, c := range cases {
		if got := RoundsToReach(c.evals, c.threshold, c.window); got != c.want {
			t.Errorf("%s: RoundsToReach = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRoundsToSustain(t *testing.T) {
	mk := func(rewards ...float64) []RoundEval {
		out := make([]RoundEval, len(rewards))
		for i, r := range rewards {
			out[i] = RoundEval{Round: i + 1, Reward: r}
		}
		return out
	}
	cases := []struct {
		name      string
		evals     []RoundEval
		threshold float64
		window    int
		want      int
	}{
		{"sustained from start", mk(0.6, 0.6, 0.6), 0.5, 2, 2},
		{"sustained after dip", mk(0.0, 0.0, 0.6, 0.6, 0.6), 0.5, 2, 4},
		{"touch then degrade never sustains", mk(0.6, 0.6, 0.0, 0.0), 0.5, 2, -1},
		{"too short", mk(0.9), 0.5, 2, -1},
		{"never", mk(0.1, 0.1, 0.1), 0.5, 2, -1},
		{"single window at end", mk(0.0, 0.0, 0.9, 0.9), 0.5, 2, 4},
	}
	for _, c := range cases {
		if got := RoundsToSustain(c.evals, c.threshold, c.window); got != c.want {
			t.Errorf("%s: RoundsToSustain = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRoundsToSustainWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	RoundsToSustain(nil, 0.5, 0)
}

func TestRoundsToReachWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	RoundsToReach(nil, 0.5, 0)
}

func TestFederatedConvergesFasterOnScenario2(t *testing.T) {
	if testing.Short() {
		t.Skip("training comparison skipped in -short mode")
	}
	// The paper's convergence claim: the federated trace reaches a given
	// reward level at least as early as the weaker local trace.
	o := smallOptions()
	o.Rounds = 40
	o.StepsPerRound = 100
	res, err := RunScenario(o, 1, TableII()[1])
	if err != nil {
		t.Fatal(err)
	}
	const threshold, window = 0.4, 6
	fed := RoundsToSustain(res.Fed, threshold, window)
	localB := RoundsToSustain(res.Local[1], threshold, window)
	if fed == -1 {
		t.Fatalf("federated trace never sustained %v", threshold)
	}
	if localB != -1 && localB < fed {
		t.Errorf("ocean/radix local policy sustained %v from round %d, before federated (%d)", threshold, localB, fed)
	}
}

func TestNeuralDeviceTrainRound(t *testing.T) {
	o := smallOptions()
	specs, err := workload.ByNames("fft", "lu")
	if err != nil {
		t.Fatal(err)
	}
	dev := NewNeuralDevice(o, 1, specs)
	initial := append([]float64(nil), dev.Ctrl.ModelParams()...)
	out, err := dev.TrainRound(1, initial)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(initial) {
		t.Fatalf("returned %d params, want %d", len(out), len(initial))
	}
	if dev.Ctrl.Step() != o.StepsPerRound {
		t.Fatalf("controller took %d steps, want %d", dev.Ctrl.Step(), o.StepsPerRound)
	}
	if dev.Ctrl.Buffer().Len() != o.StepsPerRound {
		t.Fatalf("replay holds %d samples, want %d", dev.Ctrl.Buffer().Len(), o.StepsPerRound)
	}
	// With StepsPerRound=40 and H=20, two updates fired: parameters moved.
	moved := false
	for i := range out {
		if out[i] != initial[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("local training did not move the parameters")
	}
}

func TestNeuralDeviceTrainsOnlyAssignedApps(t *testing.T) {
	o := smallOptions()
	specs, err := workload.ByNames("ocean", "radix")
	if err != nil {
		t.Fatal(err)
	}
	dev := NewNeuralDevice(o, 2, specs)
	if _, err := dev.TrainRound(1, dev.Ctrl.ModelParams()); err != nil {
		t.Fatal(err)
	}
	name := dev.Dev.Workload().Name()
	if name != "ocean" && name != "radix" {
		t.Fatalf("device is running %s, not an assigned app", name)
	}
}

func TestTabularDeviceTrainRound(t *testing.T) {
	o := smallOptions()
	specs, err := workload.ByNames("fft", "lu")
	if err != nil {
		t.Fatal(err)
	}
	dev := newTabularDevice(o, 3, specs)
	dev.TrainRound()
	if dev.Agent.Local.Step() != o.StepsPerRound {
		t.Fatalf("agent took %d steps, want %d", dev.Agent.Local.Step(), o.StepsPerRound)
	}
	if dev.Agent.Local.States() == 0 {
		t.Fatal("no states visited during a training round")
	}
}
