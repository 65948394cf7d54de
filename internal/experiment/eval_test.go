package experiment

import (
	"math/rand"
	"runtime"
	"testing"

	"fedpower/internal/core"
	"fedpower/internal/sim"
	"fedpower/internal/workload"
)

// levelPolicy always picks a fixed V/f level; the simplest possible Policy.
type levelPolicy int

func (p levelPolicy) Action(obs sim.Observation) int { return int(p) }

func testOptions() Options {
	o := DefaultOptions()
	o.Rounds = 5
	o.EvalSteps = 20
	return o
}

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestEvaluateCappedEpisode(t *testing.T) {
	o := testOptions()
	res := evaluate(o, levelPolicy(7), mustSpec(t, "fft"), false, 1)
	if res.Steps != o.EvalSteps {
		t.Fatalf("steps = %d, want cap %d", res.Steps, o.EvalSteps)
	}
	if res.Completed {
		t.Fatal("20 steps cannot complete fft")
	}
	if res.App != "fft" {
		t.Fatalf("app = %s", res.App)
	}
	// Fixed level 7 on fft (825.6 MHz) stays under the budget: positive
	// reward equal to the normalised frequency (modulo sensor noise).
	if res.AvgReward < 0.4 || res.AvgReward > 0.7 {
		t.Errorf("avg reward %v, want ~825.6/1479", res.AvgReward)
	}
	if res.StdNormFreq != 0 {
		t.Errorf("fixed-level policy should have zero frequency std, got %v", res.StdNormFreq)
	}
}

func TestEvaluateToCompletion(t *testing.T) {
	o := testOptions()
	res := evaluate(o, levelPolicy(14), mustSpec(t, "ocean"), true, 2)
	if !res.Completed {
		t.Fatal("ocean at f_max did not complete within MaxExecSteps")
	}
	// ocean at f_max: ~27 s per the calibration.
	if res.ExecTimeS < 15 || res.ExecTimeS > 45 {
		t.Errorf("exec time %v s, want ~27 s", res.ExecTimeS)
	}
	if res.AvgIPS <= 0 || res.AvgPowerW <= 0 {
		t.Errorf("degenerate metrics: %+v", res)
	}
	// Memory-bound at f_max stays under the budget.
	if res.AvgPowerW > o.Core.Reward.PCritW {
		t.Errorf("ocean at f_max drew %v W, want under %v", res.AvgPowerW, o.Core.Reward.PCritW)
	}
}

func TestEvaluateViolationsCounted(t *testing.T) {
	o := testOptions()
	// water-ns at f_max violates the 0.6 W budget almost every step.
	res := evaluate(o, levelPolicy(14), mustSpec(t, "water-ns"), false, 3)
	if res.Violations < res.Steps*3/4 {
		t.Fatalf("violations = %d of %d, want nearly all", res.Violations, res.Steps)
	}
	if res.AvgReward > -0.5 {
		t.Errorf("avg reward %v, want deeply negative under constant violation", res.AvgReward)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	o := testOptions()
	a := evaluate(o, levelPolicy(9), mustSpec(t, "lu"), false, 9, 1)
	b := evaluate(o, levelPolicy(9), mustSpec(t, "lu"), false, 9, 1)
	if a != b {
		t.Fatalf("same ids produced different results:\n%+v\n%+v", a, b)
	}
	c := evaluate(o, levelPolicy(9), mustSpec(t, "lu"), false, 9, 2)
	if a == c {
		t.Fatal("different ids produced identical noise streams")
	}
}

func TestNewNeuralPolicyUsesSnapshot(t *testing.T) {
	o := testOptions()
	ctrl := core.NewController(o.Core, rand.New(rand.NewSource(4)))
	pol := NewNeuralPolicy(o.Core, ctrl.ModelParams())
	obs := sim.Observation{NormFreq: 0.5, PowerW: 0.4, IPC: 1.2, MissRate: 0.05, MPKI: 4}
	want := ctrl.GreedyAction(core.StateVector(obs, nil))
	if got := pol.Action(obs); got != want {
		t.Fatalf("policy action %d, want controller greedy %d", got, want)
	}
}

// TestGreedyEvaluationAllocBudget bounds what one greedy evaluation
// allocates: NewNeuralPolicy plus one evaluate episode at smallOptions(),
// averaged over 200 calls, stays within 32 KB. A Fig. 3 run makes 900 of
// them, one per round per training unit, so a policy that builds a full
// controller again (its replay ring alone is ~150 KB) fails here rather
// than as garbage at the round barrier.
func TestGreedyEvaluationAllocBudget(t *testing.T) {
	const (
		calls  = 200
		budget = 32 << 10
	)
	o := smallOptions()
	model := core.InitialModel(o.Core, rand.New(rand.NewSource(6)))
	spec := mustSpec(t, "fft")
	evaluate(o, NewNeuralPolicy(o.Core, model), spec, false, 61) // warm any lazy package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < calls; k++ {
		evaluate(o, NewNeuralPolicy(o.Core, model), spec, false, 61, int64(k))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > budget {
		t.Errorf("NewNeuralPolicy + one evaluate episode allocates %d B, budget %d B", per, budget)
	}
}

func TestNewTabularPolicyGreedy(t *testing.T) {
	o := testOptions()
	_ = o
	agent := newTabularDevice(testOptions(), 77, workload.SPLASH2()[:2]).Agent
	disc := agent.Local.P.Disc
	obs := sim.Observation{Level: 5, PowerW: 0.5, IPC: 1.0, MPKI: 5}
	key := disc.Key(obs)
	agent.Observe(key, 9, 1.0)
	pol := NewTabularPolicy(agent)
	if got := pol.Action(obs); got != 9 {
		t.Fatalf("tabular policy action %d, want 9", got)
	}
}

func TestEvaluateIndependentOfTrainingState(t *testing.T) {
	// evaluate must not perturb a live device/controller: run one, snapshot
	// the controller, evaluate, and verify the controller is untouched.
	o := testOptions()
	dev := NewNeuralDevice(o, 50, workload.SPLASH2()[:2])
	if _, err := dev.TrainRound(1, dev.Ctrl.ModelParams()); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), dev.Ctrl.ModelParams()...)
	stepBefore := dev.Ctrl.Step()
	evaluate(o, NewNeuralPolicy(o.Core, before), mustSpec(t, "fft"), false, 51)
	if dev.Ctrl.Step() != stepBefore {
		t.Fatal("evaluation advanced the training controller")
	}
	for i, v := range dev.Ctrl.ModelParams() {
		if v != before[i] {
			t.Fatal("evaluation mutated training parameters")
		}
	}
}
