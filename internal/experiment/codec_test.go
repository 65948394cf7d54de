package experiment

import (
	"math"
	"testing"
	"time"

	"fedpower/internal/core"
	"fedpower/internal/fed"
	"fedpower/internal/workload"
)

// codecOptions is the shared CI-sized training budget of the codec
// acceptance tests: the tinyResilience shape over a chosen Table II
// scenario.
func codecOptions() Options {
	o := smallOptions()
	o.Rounds = 3
	o.StepsPerRound = 10
	o.EvalSteps = 8
	return o
}

// runCodecFederation trains one federation of the scenario's devices under
// the codec and returns every round's aggregated global model plus the
// final greedy-evaluation reward. With tcp unset it uses the in-process
// wire emulation (fed.RunParallelCodec) at the given width; with tcp set it
// runs the real TCP transport (width does not apply — the server always
// handles connections concurrently). Devices are built fresh from the same
// seed streams either way, so any divergence is the transport's.
func runCodecFederation(t *testing.T, o Options, sc Scenario, codec fed.Codec, width int, tcp bool) ([][]float64, float64) {
	t.Helper()
	devices := len(sc.Devices)
	clients := make([]fed.Client, devices)
	for i, names := range sc.Devices {
		specs, err := workload.ByNames(names...)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = NewNeuralDevice(o, int64(idResilienceDevice+i), specs)
	}
	initial := core.NewController(o.Core, newRNG(o.Seed, idResilienceInit)).ModelParams()

	var rounds [][]float64
	hook := func(round int, g []float64) {
		rounds = append(rounds, append([]float64(nil), g...))
	}

	var final []float64
	if tcp {
		srv, err := fed.NewServer("127.0.0.1:0", devices, o.Rounds)
		if err != nil {
			t.Fatal(err)
		}
		srv.Codec = codec
		srv.RoundTimeout = 30 * time.Second
		srv.WriteTimeout = 30 * time.Second
		srv.JoinTimeout = 30 * time.Second
		errs := make(chan error, devices)
		for i := range clients {
			go func(i int) {
				conn, err := fed.DialCodec(srv.Addr(), uint32(i+1), codec)
				if err != nil {
					errs <- err
					return
				}
				defer func() { _ = conn.Close() }()
				_, err = conn.Participate(clients[i])
				errs <- err
			}(i)
		}
		final, err = srv.Serve(initial, hook)
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		for range clients {
			if err := <-errs; err != nil {
				t.Fatalf("participant: %v", err)
			}
		}
	} else {
		final = append([]float64(nil), initial...)
		if err := fed.RunParallelCodec(final, clients, o.Rounds, width, codec, hook); err != nil {
			t.Fatal(err)
		}
	}

	pol := NewNeuralPolicy(o.Core, final)
	sum := 0.0
	for a, spec := range EvalApps() {
		sum += evaluate(o, pol, spec, false, idResilienceEval, int64(a)).AvgReward
	}
	return rounds, sum / float64(len(EvalApps()))
}

// sameRounds requires two runs' per-round aggregated parameter histories to
// be bit-identical.
func sameRounds(t *testing.T, label string, base, got [][]float64) {
	t.Helper()
	if len(base) != len(got) {
		t.Fatalf("%s: %d rounds, want %d", label, len(got), len(base))
	}
	for r := range base {
		if len(base[r]) != len(got[r]) {
			t.Fatalf("%s: round %d has %d params, want %d", label, r+1, len(got[r]), len(base[r]))
		}
		for i := range base[r] {
			if math.Float64bits(base[r][i]) != math.Float64bits(got[r][i]) {
				t.Fatalf("%s: round %d param %d: %v, want %v (must be bit-identical)",
					label, r+1, i, got[r][i], base[r][i])
			}
		}
	}
}

// TestCodecDenseBitIdentical: the dense codec's federated training result —
// every round's aggregated parameters and the final evaluation reward — is
// bit-identical across the in-process wire emulation at parallelism 1 and
// 8 and the real TCP transport. This is the emulation's correctness
// contract, and under `-count=2` (the determinism gate) it also proves the
// whole path replays bit-identically.
func TestCodecDenseBitIdentical(t *testing.T) {
	o := codecOptions()
	sc := TableII()[0]
	baseRounds, baseReward := runCodecFederation(t, o, sc, fed.DenseCodec(), 1, false)
	for _, v := range []struct {
		label string
		width int
		tcp   bool
	}{
		{"in-process width 8", 8, false},
		{"TCP", 0, true},
	} {
		rounds, reward := runCodecFederation(t, o, sc, fed.DenseCodec(), v.width, v.tcp)
		sameRounds(t, "dense "+v.label, baseRounds, rounds)
		if math.Float64bits(reward) != math.Float64bits(baseReward) {
			t.Fatalf("dense %s: final reward %v, want %v", v.label, reward, baseReward)
		}
	}
}

// TestCodecDeltaBitIdentical: the delta codec reconstructs every exchanged
// model bit-exactly, so a delta federation — in-process at parallelism 1
// and 8, and over TCP — must be bit-identical to the dense one, round by
// round and in the final reward. The TCP leg is the delta-codec round the
// determinism replay gate re-runs under -count=2 and -race.
func TestCodecDeltaBitIdentical(t *testing.T) {
	o := codecOptions()
	sc := TableII()[0]
	baseRounds, baseReward := runCodecFederation(t, o, sc, fed.DenseCodec(), 1, false)
	for _, v := range []struct {
		label string
		width int
		tcp   bool
	}{
		{"in-process width 1", 1, false},
		{"in-process width 8", 8, false},
		{"TCP", 0, true},
	} {
		rounds, reward := runCodecFederation(t, o, sc, fed.DeltaCodec(), v.width, v.tcp)
		sameRounds(t, "delta "+v.label, baseRounds, rounds)
		if math.Float64bits(reward) != math.Float64bits(baseReward) {
			t.Fatalf("delta %s: final reward %v, want %v", v.label, reward, baseReward)
		}
	}
}

// quantRewardTolerance bounds how far the quantized federation's final
// evaluation reward may sit from the dense run's. The band was sized from
// the seeded-replicate spread at this training budget — seeds 1..5 of the
// dense scenario-2 run span 0.44 of reward, so 0.30 keeps quantization
// noise strictly inside run-to-run noise. (The diff observed when pinning
// was < 1e-3, so this also has lots of slack against flakiness.)
const quantRewardTolerance = 0.30

// TestCodecQuantCutsBytesWithinNoise is the quantized codec's acceptance
// pin on the paper's scenario 2 (the hardest local-only case): a quant8
// resilience run must move ≥4× fewer model-bearing bytes than the dense
// run, its on-wire counters must match the codec's predicted frame sizes
// exactly, and its final reward must stay inside the seeded-replicate noise
// band around the dense result.
func TestCodecQuantCutsBytesWithinNoise(t *testing.T) {
	run := func(codec fed.Codec) *ResilienceResult {
		r := tinyResilience()
		r.Options = codecOptions()
		r.Scenario = TableII()[1]
		r.Codec = codec
		res, err := RunResilience(r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != "" {
			t.Fatalf("%s run degraded: %s", codec, res.Err)
		}
		return res
	}
	dense := run(fed.DenseCodec())
	quant, err := fed.QuantCodec(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := run(quant)

	o := codecOptions()
	n := core.NewController(o.Core, newRNG(1, 0)).NumParams()
	devices := len(TableII()[1].Devices)
	rounds := o.Rounds

	// On-wire counters must be the actual per-codec frame sizes.
	if want := int64(devices*(rounds+1)) * int64(fed.DenseCodec().TransferSize(n)); dense.ServerBytesSent != want {
		t.Errorf("dense server sent %d B, want %d", dense.ServerBytesSent, want)
	}
	if want := int64(devices*(rounds+1)) * int64(quant.TransferSize(n)); q.ServerBytesSent != want {
		t.Errorf("quant8 server sent %d B, want %d", q.ServerBytesSent, want)
	}
	if want := int64(devices*rounds) * int64(quant.TransferSize(n)); q.ServerBytesReceived != want {
		t.Errorf("quant8 server received %d B, want %d", q.ServerBytesReceived, want)
	}

	// Model-bearing bytes (frames minus protocol framing and codec
	// metadata, the §IV-C metric: 4 B per parameter dense, 1 B quant8) must
	// shrink at least 4×.
	msgs := int64(devices * (2*rounds + 1))
	denseModel := dense.ServerBytesSent + dense.ServerBytesReceived - msgs*int64(fed.DenseCodec().TransferSize(n)-4*n)
	quantModel := q.ServerBytesSent + q.ServerBytesReceived - msgs*int64(quant.TransferSize(n)-n)
	if denseModel < 4*quantModel {
		t.Errorf("quant8 moved %d model-bearing bytes vs dense %d — reduction %.2f×, want >= 4×",
			quantModel, denseModel, float64(denseModel)/float64(quantModel))
	}

	// Accuracy: quantization noise stays inside the replicate noise band.
	if diff := math.Abs(q.FinalReward - dense.FinalReward); diff > quantRewardTolerance {
		t.Errorf("quant8 final reward %.4f vs dense %.4f: |diff| %.4f exceeds the %.2f noise band",
			q.FinalReward, dense.FinalReward, diff, quantRewardTolerance)
	}
	t.Logf("dense reward %.4f (%d model B), quant8 reward %.4f (%d model B)",
		dense.FinalReward, denseModel, q.FinalReward, quantModel)
}
