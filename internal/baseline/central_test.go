package baseline

import (
	"math"
	"math/rand"
	"testing"

	"fedpower/internal/core"
	"fedpower/internal/replay"
)

func TestRawSampleBytes(t *testing.T) {
	// 5 state features + action + reward, 4 bytes each.
	if RawSampleBytes != 28 {
		t.Fatalf("RawSampleBytes = %d, want 28", RawSampleBytes)
	}
}

func TestCentralTrainerAccounting(t *testing.T) {
	tr := NewCentralTrainer(core.Defaults(15), rand.New(rand.NewSource(1)))
	batch := make([]replay.Sample, 10)
	for i := range batch {
		batch[i] = replay.Sample{State: make([]float64, core.StateDim), Action: i % 15, Reward: 0.5}
	}
	tr.Ingest(batch)
	tr.Ingest(batch[:3])
	if tr.RawBytesReceived() != 13*RawSampleBytes {
		t.Fatalf("raw bytes = %d, want %d", tr.RawBytesReceived(), 13*RawSampleBytes)
	}
}

func TestCentralTrainerLearnsFromUploads(t *testing.T) {
	// Feed the server a synthetic two-context bandit via raw uploads: it
	// must learn the same mapping an on-device controller would.
	p := core.Defaults(15)
	tr := NewCentralTrainer(p, rand.New(rand.NewSource(2)))
	rng := rand.New(rand.NewSource(3))
	ctx0 := []float64{0.1, 0.2, 0.9, 0.05, 0.1}
	ctx1 := []float64{0.9, 0.7, 0.2, 0.25, 0.8}

	batch := make([]replay.Sample, 0, 100)
	for round := 0; round < 40; round++ {
		batch = batch[:0]
		for i := 0; i < 100; i++ {
			state, best := ctx0, 3
			if i%2 == 1 {
				state, best = ctx1, 11
			}
			action := rng.Intn(15)
			r := 1 - 0.15*math.Abs(float64(action-best)) + rng.NormFloat64()*0.02
			batch = append(batch, replay.Sample{State: state, Action: action, Reward: r})
		}
		tr.Ingest(batch)
	}
	if got := tr.Controller().GreedyAction(ctx0); got < 2 || got > 4 {
		t.Errorf("context 0 greedy %d, want near 3", got)
	}
	if got := tr.Controller().GreedyAction(ctx1); got < 10 || got > 12 {
		t.Errorf("context 1 greedy %d, want near 11", got)
	}
}

func TestCentralPolicyIsLive(t *testing.T) {
	tr := NewCentralTrainer(core.Defaults(15), rand.New(rand.NewSource(4)))
	p1 := append([]float64(nil), tr.Policy()...)
	batch := make([]replay.Sample, 20)
	for i := range batch {
		batch[i] = replay.Sample{State: make([]float64, core.StateDim), Action: 0, Reward: 1}
	}
	tr.Ingest(batch) // 20 samples = one H-interval: an update fires
	changed := false
	for i, v := range tr.Policy() {
		if v != p1[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("server-side training did not move the policy")
	}
}
