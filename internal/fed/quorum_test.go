package fed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedpower/internal/nn"
)

// subsetClient fails exactly in the rounds its schedule marks, and returns
// its fixed parameter vector otherwise.
type subsetClient struct {
	params []float64
	fail   map[int]bool
}

func (c subsetClient) TrainRound(round int, global []float64) ([]float64, error) {
	if c.fail[round] {
		return nil, fmt.Errorf("injected failure in round %d", round)
	}
	return c.params, nil
}

// TestQuorumSubsetMeanProperty is the aggregation property: for EVERY
// subset of surviving clients, the committed global model is bit-identical
// to the unweighted mean of exactly those clients' parameters — computed
// independently with nn.AverageParams over the expected survivor set.
func TestQuorumSubsetMeanProperty(t *testing.T) {
	// Parameter vectors chosen non-dyadic so an aggregation that sneaks in
	// an extra participant or reorders the survivor sum would show up at
	// the bit level.
	base := [][]float64{
		{0.1, -7.3, math.Pi},
		{2.7, 11.9, -0.004},
		{-3.3, 0.123456789, 8.25},
		{19.17, -2.5, 1e-9},
	}
	n := len(base)
	for mask := 0; mask < 1<<n; mask++ {
		survivors := make([]int, 0, n)
		clients := make([]Client, n)
		for i := 0; i < n; i++ {
			failed := mask&(1<<i) != 0
			clients[i] = subsetClient{params: base[i], fail: map[int]bool{1: failed}}
			if !failed {
				survivors = append(survivors, i)
			}
		}
		global := []float64{1, 2, 3}
		err := RunWithConfig(global, clients, RunConfig{
			Rounds:        1,
			Quorum:        1,
			OnClientError: DropRound,
		})
		if len(survivors) == 0 {
			if err == nil {
				t.Fatalf("mask %04b: empty round committed", mask)
			}
			continue
		}
		if err != nil {
			t.Fatalf("mask %04b: %v", mask, err)
		}
		expected := make([]float64, 3)
		srcs := make([][]float64, 0, len(survivors))
		for _, i := range survivors {
			srcs = append(srcs, base[i])
		}
		nn.AverageParams(expected, srcs...)
		for k := range expected {
			if global[k] != expected[k] {
				t.Fatalf("mask %04b: global[%d] = %v, want survivor mean %v (survivors %v)",
					mask, k, global[k], expected[k], survivors)
			}
		}
	}
}

// TestQuorumStaleParamsNeverLeak: a client that fails in round r contributes
// nothing to round r — not even the parameters it returned in r-1 — and its
// poison values are bit-absent from every later round it sits out.
func TestQuorumStaleParamsNeverLeak(t *testing.T) {
	const poison = 1e12
	// The poisoned client delivers an enormous vector in round 1, then
	// fails for the rest of the run.
	poisoned := ClientFunc(func(round int, global []float64) ([]float64, error) {
		if round > 1 {
			return nil, errors.New("device offline")
		}
		return []float64{poison, poison}, nil
	})
	steady := constClient{[]float64{4, 8}}

	var perRound [][]float64
	global := []float64{0, 0}
	err := RunWithConfig(global, []Client{poisoned, steady}, RunConfig{
		Rounds:        3,
		Quorum:        1,
		OnClientError: DropRound,
		Hook: func(round int, g []float64) {
			perRound = append(perRound, append([]float64(nil), g...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: both participate → (poison+4)/2. Rounds 2, 3: only the
	// steady client → exactly {4, 8}, the poison gone without a trace.
	want1 := (poison + 4) / 2
	if perRound[0][0] != want1 {
		t.Errorf("round 1 global = %v, want %v", perRound[0][0], want1)
	}
	for r := 1; r < 3; r++ {
		if perRound[r][0] != 4 || perRound[r][1] != 8 {
			t.Errorf("round %d global = %v, want exactly [4 8] (stale poison leaked)", r+1, perRound[r])
		}
	}
}

// TestQuorumDroppedClientRejoins: a client that fails one round receives
// the next round's broadcast again and rejoins the aggregate.
func TestQuorumDroppedClientRejoins(t *testing.T) {
	var rounds []int
	flaky := ClientFunc(func(round int, global []float64) ([]float64, error) {
		rounds = append(rounds, round)
		if round == 2 {
			return nil, errors.New("transient")
		}
		out := make([]float64, len(global))
		for i, g := range global {
			out[i] = g + 4
		}
		return out, nil
	})
	global := []float64{0}
	err := RunWithConfig(global, []Client{flaky, addClient{2}}, RunConfig{
		Rounds: 3, Quorum: 1, OnClientError: DropRound,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: +3 (both). Round 2: +2 (steady only). Round 3: +3 (both).
	if global[0] != 8 {
		t.Fatalf("global = %v, want 8", global[0])
	}
	if len(rounds) != 3 {
		t.Fatalf("flaky client offered %d broadcasts %v, want all 3 rounds", len(rounds), rounds)
	}
}

// TestRunWithConfigFailFastMatchesRun: every in-process entry point runs the
// one round engine, so a client failing — or returning the wrong shape — in
// round 2 surfaces identically everywhere: the cause stays reachable through
// errors.Is and the failure carries round, phase and client index as a
// *RoundError.
func TestRunWithConfigFailFastMatchesRun(t *testing.T) {
	entries := []struct {
		name string
		run  func(global []float64, clients []Client) error
	}{
		{"Run", func(g []float64, c []Client) error { return Run(g, c, 5, nil) }},
		{"RunParallel/4", func(g []float64, c []Client) error { return RunParallel(g, c, 5, 4, nil) }},
		{"RunParallelCodec/dense", func(g []float64, c []Client) error {
			return RunParallelCodec(g, c, 5, 1, DenseCodec(), nil)
		}},
		{"RunSampled/1", func(g []float64, c []Client) error {
			return RunSampled(g, c, 1, 5, rand.New(rand.NewSource(1)), nil)
		}},
		{"RunTree/2x2", func(g []float64, c []Client) error {
			return RunTree(g, c, Uniform(2, 2), TreeConfig{Rounds: 5})
		}},
		{"RunWithConfig", func(g []float64, c []Client) error {
			return RunWithConfig(g, c, RunConfig{Rounds: 5})
		}},
	}
	sentinel := errors.New("device offline")
	failures := []struct {
		name  string
		cause error // what errors.Is must still find, if anything
		bad   ClientFunc
	}{
		{"client error", sentinel, func(round int, global []float64) ([]float64, error) {
			if round == 2 {
				return nil, sentinel
			}
			return global, nil
		}},
		{"wrong shape", nil, func(round int, global []float64) ([]float64, error) {
			if round == 2 {
				return make([]float64, len(global)+2), nil
			}
			return global, nil
		}},
	}
	const badClient = 2
	for _, e := range entries {
		for _, f := range failures {
			t.Run(e.name+"/"+f.name, func(t *testing.T) {
				clients := []Client{addClient{2}, addClient{4}, addClient{6}, addClient{8}}
				clients[badClient] = f.bad
				err := e.run([]float64{0}, clients)
				if err == nil {
					t.Fatal("run with a failing client succeeded")
				}
				if f.cause != nil && !errors.Is(err, f.cause) {
					t.Fatalf("error %v does not wrap the client failure", err)
				}
				var re *RoundError
				if !errors.As(err, &re) || re.Round != 2 || re.Phase != PhaseTrain || re.Client != badClient {
					t.Fatalf("error lacks round 2 / train / client %d context: %v", badClient, err)
				}
			})
		}
	}
}

func TestRunWithConfigCleanMatchesRunBitIdentically(t *testing.T) {
	mk := func() []Client {
		return []Client{constClient{[]float64{0.1, 0.7}}, constClient{[]float64{0.2, -0.3}}, addClient{0.05}}
	}
	a := []float64{0.5, 0.25}
	if err := Run(a, mk(), 4, nil); err != nil {
		t.Fatal(err)
	}
	b := []float64{0.5, 0.25}
	if err := RunWithConfig(b, mk(), RunConfig{Rounds: 4, OnClientError: DropRound, Quorum: 3}); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clean RunWithConfig differs from Run at %d: %v vs %v", i, b[i], a[i])
		}
	}
}

func TestRunWithConfigQuorumAbort(t *testing.T) {
	dead := ClientFunc(func(round int, global []float64) ([]float64, error) {
		return nil, errors.New("offline")
	})
	err := RunWithConfig([]float64{0}, []Client{dead, addClient{1}, addClient{2}}, RunConfig{
		Rounds: 3, Quorum: 3, OnClientError: DropRound,
	})
	var re *RoundError
	if !errors.As(err, &re) {
		t.Fatalf("quorum abort error = %v, want *RoundError", err)
	}
	if re.Round != 1 || re.Phase != PhaseCollect {
		t.Fatalf("abort context = round %d phase %s, want round 1 collect", re.Round, re.Phase)
	}
	if re.Timeout() {
		t.Error("client error misclassified as timeout")
	}
}

func TestRunWithConfigValidation(t *testing.T) {
	c := []Client{addClient{1}}
	if err := RunWithConfig([]float64{0}, nil, RunConfig{Rounds: 1}); err == nil {
		t.Error("no clients accepted")
	}
	if err := RunWithConfig([]float64{0}, c, RunConfig{Rounds: 0}); err == nil {
		t.Error("zero rounds accepted")
	}
	if err := RunWithConfig([]float64{0}, c, RunConfig{Rounds: 1, Quorum: 2}); err == nil {
		t.Error("quorum above client count accepted")
	}
	if err := RunWithConfig([]float64{0}, c, RunConfig{Rounds: 1, Quorum: -1}); err == nil {
		t.Error("negative quorum accepted")
	}
}

// TestQuorumShapeMismatchDropped: under DropRound a wrong-shape return is a
// per-round failure, not a protocol abort.
func TestQuorumShapeMismatchDropped(t *testing.T) {
	bad := ClientFunc(func(round int, global []float64) ([]float64, error) {
		return []float64{1, 2, 3}, nil
	})
	global := []float64{0}
	err := RunWithConfig(global, []Client{bad, addClient{2}}, RunConfig{
		Rounds: 2, Quorum: 1, OnClientError: DropRound,
	})
	if err != nil {
		t.Fatal(err)
	}
	if global[0] != 4 {
		t.Fatalf("global = %v, want 4 (+2 per round from the well-shaped client)", global[0])
	}
}
