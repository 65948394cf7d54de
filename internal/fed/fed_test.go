package fed

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// constClient always returns the same parameter vector.
type constClient struct{ params []float64 }

func (c constClient) TrainRound(round int, global []float64) ([]float64, error) {
	return c.params, nil
}

// addClient returns the received global plus a constant offset, so the
// aggregation dynamics are observable round over round.
type addClient struct{ delta float64 }

func (c addClient) TrainRound(round int, global []float64) ([]float64, error) {
	out := make([]float64, len(global))
	for i, g := range global {
		out[i] = g + c.delta
	}
	return out, nil
}

func TestRunValidation(t *testing.T) {
	if err := Run([]float64{1}, nil, 5, nil); err == nil {
		t.Error("Run with no clients succeeded")
	}
	if err := Run([]float64{1}, []Client{constClient{[]float64{1}}}, 0, nil); err == nil {
		t.Error("Run with zero rounds succeeded")
	}
}

func TestRunAveragesClients(t *testing.T) {
	global := []float64{0, 0}
	clients := []Client{
		constClient{[]float64{1, 3}},
		constClient{[]float64{3, 5}},
	}
	if err := Run(global, clients, 1, nil); err != nil {
		t.Fatal(err)
	}
	if global[0] != 2 || global[1] != 4 {
		t.Fatalf("global after round = %v, want [2 4]", global)
	}
}

func TestRunSingleClientIsIdentity(t *testing.T) {
	// A federation of one is local-only training: averaging one model is
	// the identity. This is how the experiment harness implements the
	// local-only arm.
	global := []float64{0}
	if err := Run(global, []Client{addClient{1}}, 7, nil); err != nil {
		t.Fatal(err)
	}
	if global[0] != 7 {
		t.Fatalf("global = %v, want 7 after 7 increments", global[0])
	}
}

func TestRunMultiRoundDynamics(t *testing.T) {
	// Two clients adding +2 and +4 per round: each round the global grows
	// by the mean (+3).
	global := []float64{0}
	if err := Run(global, []Client{addClient{2}, addClient{4}}, 3, nil); err != nil {
		t.Fatal(err)
	}
	if global[0] != 9 {
		t.Fatalf("global = %v, want 9", global[0])
	}
}

func TestRunHookSeesEveryRound(t *testing.T) {
	var rounds []int
	var values []float64
	global := []float64{0}
	err := Run(global, []Client{addClient{1}}, 4, func(r int, g []float64) {
		rounds = append(rounds, r)
		values = append(values, g[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 4 {
		t.Fatalf("hook ran %d times, want 4", len(rounds))
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Errorf("hook round %d, want %d", r, i+1)
		}
		if values[i] != float64(i+1) {
			t.Errorf("hook saw global %v at round %d, want %d", values[i], r, i+1)
		}
	}
}

func TestRunClientsSeeBroadcastNotPeers(t *testing.T) {
	// Every client in a round must receive the same global model,
	// regardless of what earlier clients returned in that round.
	var received [][]float64
	mk := func(ret float64) ClientFunc {
		return func(round int, global []float64) ([]float64, error) {
			received = append(received, append([]float64(nil), global...))
			return []float64{ret}, nil
		}
	}
	global := []float64{10}
	if err := Run(global, []Client{mk(0), mk(100)}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if received[0][0] != 10 || received[1][0] != 10 {
		t.Fatalf("clients saw %v, want both to see the broadcast 10", received)
	}
	if global[0] != 50 {
		t.Fatalf("global = %v, want 50", global[0])
	}
}

func TestRunErrorPropagation(t *testing.T) {
	sentinel := errors.New("device offline")
	failing := ClientFunc(func(round int, global []float64) ([]float64, error) {
		if round == 2 {
			return nil, sentinel
		}
		return global, nil
	})
	err := Run([]float64{0}, []Client{failing}, 5, nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not wrap the client failure", err)
	}
}

func TestRunLengthMismatchRejected(t *testing.T) {
	bad := ClientFunc(func(round int, global []float64) ([]float64, error) {
		return []float64{1, 2, 3}, nil
	})
	if err := Run([]float64{0}, []Client{bad}, 1, nil); err == nil {
		t.Fatal("mismatched parameter count accepted")
	}
}

func TestRunCopiesClientReturns(t *testing.T) {
	// The orchestrator must copy client returns so a client returning its
	// live parameter vector is safe.
	live := []float64{1}
	client := ClientFunc(func(round int, global []float64) ([]float64, error) {
		live[0] = float64(round)
		return live, nil
	})
	global := []float64{0}
	if err := Run(global, []Client{client}, 3, nil); err != nil {
		t.Fatal(err)
	}
	if global[0] != 3 {
		t.Fatalf("global = %v, want 3", global[0])
	}
}

func TestRunSampledValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clients := []Client{constClient{[]float64{1}}}
	if err := RunSampled([]float64{0}, nil, 1, 1, rng, nil); err == nil {
		t.Error("no clients accepted")
	}
	if err := RunSampled([]float64{0}, clients, 0, 1, rng, nil); err == nil {
		t.Error("zero fraction accepted")
	}
	if err := RunSampled([]float64{0}, clients, 1.5, 1, rng, nil); err == nil {
		t.Error("fraction above 1 accepted")
	}
	if err := RunSampled([]float64{0}, clients, 1, 0, rng, nil); err == nil {
		t.Error("zero rounds accepted")
	}
	if err := RunSampled([]float64{0}, clients, 1, 1, nil, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestRunSampledFullParticipationMatchesRun(t *testing.T) {
	mk := func() []Client { return []Client{addClient{2}, addClient{4}} }
	a := []float64{0}
	if err := Run(a, mk(), 3, nil); err != nil {
		t.Fatal(err)
	}
	b := []float64{0}
	if err := RunSampled(b, mk(), 1, 3, rand.New(rand.NewSource(1)), nil); err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatalf("fraction=1 result %v differs from Run %v", b[0], a[0])
	}
}

func TestRunSampledPartialParticipation(t *testing.T) {
	// Count how often each client trains under fraction 0.5. With two
	// clients, a client participates when sampled (p = 0.5) or as the
	// forced pick when both miss (p = 0.25 · 0.5), giving 62.5 % expected.
	counts := make([]int, 2)
	mkCounting := func(i int) ClientFunc {
		return func(round int, global []float64) ([]float64, error) {
			counts[i]++
			return global, nil
		}
	}
	const rounds = 400
	err := RunSampled([]float64{0}, []Client{mkCounting(0), mkCounting(1)},
		0.5, rounds, rand.New(rand.NewSource(7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		frac := float64(c) / rounds
		if frac < 0.54 || frac > 0.71 {
			t.Errorf("client %d participated in %.0f%% of rounds, want ~62.5%%", i, frac*100)
		}
	}
	if counts[0]+counts[1] < rounds {
		t.Error("some round ran with no participant")
	}
}

func TestRunSampledNeverEmptyRound(t *testing.T) {
	// Even at a minuscule fraction every round trains someone.
	trained := 0
	client := ClientFunc(func(round int, global []float64) ([]float64, error) {
		trained++
		return global, nil
	})
	if err := RunSampled([]float64{0}, []Client{client}, 0.0001, 50, rand.New(rand.NewSource(3)), nil); err != nil {
		t.Fatal(err)
	}
	if trained < 50 {
		t.Fatalf("only %d training calls over 50 rounds", trained)
	}
}

func TestRunSampledAveragesOnlyParticipants(t *testing.T) {
	// One client forces 10, the other 20. Under full sampling the result
	// is 15 every round; under sampling the result must always be one of
	// {10, 15, 20} — never influenced by a non-participant's stale model.
	clients := []Client{constClient{[]float64{10}}, constClient{[]float64{20}}}
	global := []float64{0}
	err := RunSampled(global, clients, 0.5, 1, rand.New(rand.NewSource(11)), func(r int, g []float64) {
		if g[0] != 10 && g[0] != 15 && g[0] != 20 {
			t.Errorf("round %d global %v not an average of participants", r, g[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClientFuncAdapter(t *testing.T) {
	called := false
	var c Client = ClientFunc(func(round int, global []float64) ([]float64, error) {
		called = true
		if round != 9 {
			return nil, fmt.Errorf("round %d", round)
		}
		return global, nil
	})
	if _, err := c.TrainRound(9, []float64{1}); err != nil || !called {
		t.Fatalf("adapter: err=%v called=%v", err, called)
	}
}
