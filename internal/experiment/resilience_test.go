package experiment

import (
	"net"
	"strings"
	"testing"
	"time"

	"fedpower/internal/core"
	"fedpower/internal/faultnet"
	"fedpower/internal/fed"
	"fedpower/internal/workload"
)

// tinyResilience returns a CI-sized resilience configuration: three rounds,
// short local episodes, generous deadlines.
func tinyResilience() ResilienceOptions {
	o := smallOptions()
	o.Rounds = 3
	o.StepsPerRound = 10
	o.EvalSteps = 8
	r := DefaultResilienceOptions()
	r.Options = o
	r.Quorum = 0 // all devices — zero-fault runs must be exactly synchronous
	r.RoundTimeout = 30 * time.Second
	r.WriteTimeout = 30 * time.Second
	r.JoinTimeout = 30 * time.Second
	return r
}

// TestResilienceZeroFaultsMatchesInProcess: with no fault injection the TCP
// resilience scenario is the paper's synchronous protocol, so its final
// model — and therefore its evaluation — must be bit-identical to the
// in-process orchestrator over the same devices, and all fault counters
// must stay at zero. Running under `-count=2` additionally proves the whole
// scenario replays bit-identically run over run.
func TestResilienceZeroFaultsMatchesInProcess(t *testing.T) {
	r := tinyResilience()
	res, err := RunResilience(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("zero-fault run degraded: %s", res.Err)
	}
	if res.RoundsCompleted != r.Options.Rounds {
		t.Fatalf("completed %d rounds, want %d", res.RoundsCompleted, r.Options.Rounds)
	}
	if res.Drops != 0 || res.Rejoins != 0 || res.FaultEvents != 0 {
		t.Fatalf("zero-fault run recorded drops=%d rejoins=%d faults=%d", res.Drops, res.Rejoins, res.FaultEvents)
	}
	for _, c := range res.Clients {
		if c.Err != "" || c.Reconnects != 0 {
			t.Fatalf("client %d: err=%q reconnects=%d", c.ID, c.Err, c.Reconnects)
		}
		if c.LastRound != r.Options.Rounds {
			t.Fatalf("client %d trained through round %d, want %d", c.ID, c.LastRound, r.Options.Rounds)
		}
	}

	// Exact byte accounting: every round the server writes one model to each
	// device and reads one update back, plus the final done broadcast; the
	// join frame is protocol framing and must not be counted.
	n := core.NewController(r.Options.Core, newRNG(1, 0)).NumParams()
	devices := len(r.Scenario.Devices)
	transfer := int64(fed.TransferSize(n))
	if want := transfer * int64(devices*(r.Options.Rounds+1)); res.ServerBytesSent != want {
		t.Errorf("server sent %d bytes, want %d", res.ServerBytesSent, want)
	}
	if want := transfer * int64(devices*r.Options.Rounds); res.ServerBytesReceived != want {
		t.Errorf("server received %d bytes, want %d", res.ServerBytesReceived, want)
	}

	// The in-process reference: same devices, same initial model, same
	// aggregation — must land on the same final parameters, hence the same
	// greedy evaluation.
	clients := make([]fed.Client, devices)
	for i, names := range r.Scenario.Devices {
		specs, err := workload.ByNames(names...)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = NewNeuralDevice(r.Options, int64(idResilienceDevice+i), specs)
	}
	global := core.NewController(r.Options.Core, newRNG(r.Options.Seed, idResilienceInit)).ModelParams()
	if err := fed.Run(global, clients, r.Options.Rounds, nil); err != nil {
		t.Fatal(err)
	}
	pol := NewNeuralPolicy(r.Options.Core, global)
	for a, spec := range EvalApps() {
		ev := evaluate(r.Options, pol, spec, false, idResilienceEval, int64(a))
		if got := res.FinalEvals[a].AvgReward; got != ev.AvgReward {
			t.Fatalf("app %s: TCP-trained eval reward %v differs from in-process %v", spec.Name, got, ev.AvgReward)
		}
	}
	if len(res.FinalEvals) != len(EvalApps()) {
		t.Fatalf("evaluated %d apps, want %d", len(res.FinalEvals), len(EvalApps()))
	}
}

// TestResilienceFaultScheduleReplaysBitIdentically is the determinism claim
// behind the CI `-run Resilience -count=2` job: the fault schedule an
// injector produces for a fixed operation sequence is a pure function of
// (seed, config) — two injectors built alike emit byte-for-byte identical
// event logs, independent of wall-clock timing.
func TestResilienceFaultScheduleReplaysBitIdentically(t *testing.T) {
	cfg := faultnet.Config{DropRate: 0.2, TruncateRate: 0.2}
	run := func() []faultnet.Event {
		inj := faultnet.NewInjector(42, cfg)
		// Drive the fed wire protocol's op shape over three connections:
		// writes and reads of paper-sized frames until the schedule kills
		// the link.
		for c := 0; c < 3; c++ {
			a, b := net.Pipe()
			fc := inj.Wrap(a)
			done := make(chan struct{})
			go func() {
				defer close(done)
				buf := make([]byte, 4096)
				for {
					if _, err := b.Read(buf); err != nil {
						return
					}
					if _, err := b.Write(buf[:64]); err != nil {
						return
					}
				}
			}()
			frame := make([]byte, 2757)
			rbuf := make([]byte, 64)
			for op := 0; op < 8; op++ {
				if _, err := fc.Write(frame); err != nil {
					break
				}
				if _, err := fc.Read(rbuf); err != nil {
					break
				}
			}
			_ = fc.Close()
			_ = b.Close()
			<-done
		}
		return inj.Events()
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("schedule injected no faults at 40% fault rate")
	}
	if len(first) != len(second) {
		t.Fatalf("replay produced %d events, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestResilienceUnderFaults runs the scenario with real fault injection and
// checks the degradation invariants: the run either completes every round
// or reports a quorum collapse covering a committed prefix; counters are
// mutually consistent; and the final model is always evaluated.
func TestResilienceUnderFaults(t *testing.T) {
	r := tinyResilience()
	r.Quorum = 1
	r.Faults = faultnet.Config{DropRate: 0.05}
	r.FaultSeed = 7
	r.RoundTimeout = 5 * time.Second
	r.Retry = fed.Backoff{Attempts: 6, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}

	res, err := RunResilience(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == "" && res.RoundsCompleted != r.Options.Rounds {
		t.Fatalf("run reported success after %d of %d rounds", res.RoundsCompleted, r.Options.Rounds)
	}
	if res.Err != "" {
		if res.RoundsCompleted >= r.Options.Rounds {
			t.Fatalf("run reported failure %q after all %d rounds", res.Err, res.RoundsCompleted)
		}
		if !strings.Contains(res.Err, "round") {
			t.Errorf("degraded run's error %q does not name the failing round", res.Err)
		}
	}
	// Every reconnect a device performed implies a server-side drop; a
	// rejoin can only follow a drop.
	var reconnects int
	for _, c := range res.Clients {
		reconnects += c.Reconnects
	}
	if res.Rejoins > res.Drops {
		t.Errorf("rejoins %d exceed drops %d", res.Rejoins, res.Drops)
	}
	if res.Drops > 0 && res.FaultEvents == 0 {
		t.Errorf("server dropped %d connections but the injector recorded no faults", res.Drops)
	}
	if len(res.FinalEvals) != len(EvalApps()) {
		t.Fatalf("final model evaluated on %d apps, want %d", len(res.FinalEvals), len(EvalApps()))
	}
	t.Logf("rounds=%d drops=%d rejoins=%d reconnects=%d faults=%d reward=%.4f err=%q",
		res.RoundsCompleted, res.Drops, res.Rejoins, reconnects, res.FaultEvents, res.FinalReward, res.Err)
}

func TestResilienceOptionsValidate(t *testing.T) {
	r := tinyResilience()
	r.Quorum = len(r.Scenario.Devices) + 1
	if _, err := RunResilience(r); err == nil {
		t.Error("quorum above device count accepted")
	}
	r = tinyResilience()
	r.RoundTimeout = 0
	if _, err := RunResilience(r); err == nil {
		t.Error("unbounded round timeout accepted")
	}
	r = tinyResilience()
	r.Faults = faultnet.Config{DropRate: 2}
	if _, err := RunResilience(r); err == nil {
		t.Error("invalid fault config accepted")
	}
}
