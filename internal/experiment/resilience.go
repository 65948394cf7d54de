package experiment

import (
	"fmt"
	"net"
	"sync"
	"time"

	"fedpower/internal/core"
	"fedpower/internal/faultnet"
	"fedpower/internal/fed"
	"fedpower/internal/workload"
)

// Seed-stream identifiers for the resilience scenario, disjoint from the
// training/eval streams in run.go.
const (
	idResilienceDevice = 300
	idResilienceInit   = 920
	idResilienceEval   = 1100
	idResilienceCodec  = 1200
)

// ResilienceOptions configures the federation-resilience scenario: the
// paper's training setup run across real localhost TCP, with every client
// connection subjected to seeded fault injection (internal/faultnet) while
// the server enforces deadlines and quorum aggregation.
type ResilienceOptions struct {
	// Options is the base training configuration (rounds, steps, seeds).
	Options Options
	// Scenario assigns training applications to devices; every device
	// becomes one TCP participant.
	Scenario Scenario
	// Quorum is the server's per-round commit threshold; 0 means all
	// clients (no tolerance — any fault aborts the run).
	Quorum int
	// Faults is the per-connection fault schedule applied to every client's
	// traffic. The zero value injects nothing, making the scenario a plain
	// TCP deployment of the paper's protocol.
	Faults faultnet.Config
	// FaultSeed seeds the fault schedule; client i draws from an injector
	// seeded FaultSeed+i, so schedules are independent and replayable.
	FaultSeed int64
	// RoundTimeout, WriteTimeout and JoinTimeout are the server's phase
	// deadlines (see fed.Server). RoundTimeout must be positive: an
	// unbounded collect cannot tolerate a dropped client.
	RoundTimeout time.Duration
	WriteTimeout time.Duration
	JoinTimeout  time.Duration
	// Retry is the device-side reconnect policy.
	Retry fed.Backoff
	// Codec selects the wire encoding of every connection (fed.Codec): the
	// zero value is the paper's dense float32 format; delta is bit-exact
	// with 4 B/param; quant8/quant16 are lossy with 1 or 2 B/param. The
	// byte counters in the result report the actual on-wire traffic of the
	// chosen codec. Quantized codecs are seeded from Options.Seed so runs
	// stay replayable.
	Codec fed.Codec
}

// DefaultResilienceOptions returns a small, CI-sized resilience scenario:
// the first Table II scenario over TCP with generous deadlines and a
// three-attempt reconnect policy. Fault injection is off by default; set
// Faults (and a FaultSeed) to exercise degradation.
func DefaultResilienceOptions() ResilienceOptions {
	o := DefaultOptions()
	o.Rounds = 10
	return ResilienceOptions{
		Options:      o,
		Scenario:     TableII()[0],
		Quorum:       1,
		RoundTimeout: 30 * time.Second,
		WriteTimeout: 30 * time.Second,
		JoinTimeout:  30 * time.Second,
	}
}

// Validate reports the first inconsistency.
func (o ResilienceOptions) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if err := o.Scenario.Validate(); err != nil {
		return err
	}
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	if o.Quorum < 0 || o.Quorum > len(o.Scenario.Devices) {
		return fmt.Errorf("experiment: quorum %d out of [0,%d]", o.Quorum, len(o.Scenario.Devices))
	}
	if o.RoundTimeout <= 0 {
		return fmt.Errorf("experiment: resilience needs a positive round timeout")
	}
	return nil
}

// ClientOutcome is one device's view of a resilience run.
type ClientOutcome struct {
	ID            uint32
	Reconnects    int
	LastRound     int
	BytesSent     int64
	BytesReceived int64
	// Err is non-empty when the device gave up (retry budget exhausted or a
	// local training failure) instead of receiving the final model.
	Err string
}

// ResilienceResult reports how far the federation got under faults.
type ResilienceResult struct {
	// RoundsCompleted counts committed aggregations; equals Options.Rounds
	// on a full run.
	RoundsCompleted int
	// Drops and Rejoins are the server's connection-churn counters.
	Drops   int64
	Rejoins int64
	// ServerBytesSent/Received count the server side's model-bearing
	// traffic, the paper's §IV-C communication metric.
	ServerBytesSent     int64
	ServerBytesReceived int64
	// Clients holds per-device outcomes in device order.
	Clients []ClientOutcome
	// FaultEvents counts injected faults across all connections.
	FaultEvents int
	// Err is non-empty when the run aborted (quorum collapse); the result
	// then covers the committed prefix of rounds.
	Err string
	// FinalEvals is the greedy evaluation of the last committed global
	// model on every evaluation application; FinalReward is their mean —
	// the scenario's accuracy figure.
	FinalEvals  []EvalResult
	FinalReward float64
}

// RunResilience trains the scenario's federation over localhost TCP with
// fault injection on every client link, then greedily evaluates the last
// committed global model on the full evaluation application set. A quorum
// collapse is reported in the result (Err plus the committed prefix), not
// as a Go error: degraded completion is an outcome the scenario exists to
// measure. The returned error covers setup problems only.
func RunResilience(o ResilienceOptions) (*ResilienceResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	numDevices := len(o.Scenario.Devices)

	srv, err := fed.NewServer("127.0.0.1:0", numDevices, o.Options.Rounds)
	if err != nil {
		return nil, err
	}
	srv.Quorum = o.Quorum
	srv.RoundTimeout = o.RoundTimeout
	srv.WriteTimeout = o.WriteTimeout
	srv.JoinTimeout = o.JoinTimeout
	codec := o.Codec.Seeded(subseed(o.Options.Seed, idResilienceCodec))
	srv.Codec = codec

	// One participant per device, each behind its own seeded injector so
	// fault schedules are independent of connection interleaving.
	injectors := make([]*faultnet.Injector, numDevices)
	parts := make([]*fed.Participant, numDevices)
	clients := make([]fed.Client, numDevices)
	for i, names := range o.Scenario.Devices {
		specs, err := workload.ByNames(names...)
		if err != nil {
			_ = srv.Close()
			return nil, err
		}
		clients[i] = NewNeuralDevice(o.Options, int64(idResilienceDevice+i), specs)
		injectors[i] = faultnet.NewInjector(o.FaultSeed+int64(i), o.Faults)
		inj := injectors[i]
		addr := srv.Addr()
		parts[i] = &fed.Participant{
			Addr:  addr,
			ID:    uint32(i + 1),
			Retry: o.Retry,
			Codec: codec,
			Dialer: func(addr string) (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return inj.Wrap(c), nil
			},
		}
	}

	clientErrs := make([]error, numDevices)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, clientErrs[i] = parts[i].Run(clients[i])
		}(i)
	}
	// Guard against a wedged server once every device has exited (all gave
	// up under an unlucky schedule): closing the listener aborts Serve. On
	// the normal path Serve has already returned and the close is a no-op.
	guardDone := make(chan struct{})
	go func() {
		defer close(guardDone)
		wg.Wait()
		_ = srv.Close()
	}()

	initial := core.InitialModel(o.Options.Core, newRNG(o.Options.Seed, idResilienceInit))
	res := &ResilienceResult{Clients: make([]ClientOutcome, numDevices)}
	lastGlobal := append([]float64(nil), initial...)
	_, serveErr := srv.Serve(initial, func(round int, g []float64) {
		res.RoundsCompleted = round
		copy(lastGlobal, g)
	})
	<-guardDone

	if serveErr != nil {
		res.Err = serveErr.Error()
	}
	res.Drops = srv.Drops()
	res.Rejoins = srv.Rejoins()
	res.ServerBytesSent = srv.BytesSent()
	res.ServerBytesReceived = srv.BytesReceived()
	for i, p := range parts {
		out := ClientOutcome{
			ID:            p.ID,
			Reconnects:    p.Reconnects(),
			LastRound:     p.LastRound(),
			BytesSent:     p.BytesSent(),
			BytesReceived: p.BytesReceived(),
		}
		if clientErrs[i] != nil {
			out.Err = clientErrs[i].Error()
		}
		res.Clients[i] = out
		res.FaultEvents += len(injectors[i].Events())
	}

	// Accuracy of the surviving model: greedy evaluation on every
	// application, as in §IV-A, against the last committed aggregate.
	pol := NewNeuralPolicy(o.Options.Core, lastGlobal)
	sum := 0.0
	for a, spec := range EvalApps() {
		ev := evaluate(o.Options, pol, spec, false, idResilienceEval, int64(a))
		res.FinalEvals = append(res.FinalEvals, ev)
		sum += ev.AvgReward
	}
	res.FinalReward = sum / float64(len(res.FinalEvals))
	return res, nil
}
