// Federation: the paper's full deployment shape in one process — a TCP
// aggregation server plus two "edge devices" running as goroutines, each
// with its own simulated processor, disjoint training applications, replay
// buffer and power controller. Only model parameters cross the sockets.
//
// Device A trains on compute-bound applications (water-ns, water-sp) and
// device B on memory-bound ones (ocean, radix) — scenario 2 of Table II,
// the case where local-only training fails hardest. After training, the
// shared global policy is evaluated on applications *neither* pairing saw
// alone, demonstrating the knowledge consolidation of federated learning.
//
// The run also demonstrates the fault-tolerant protocol: device B's first
// connection is rigged to die mid-training, the server drops it for that
// round (quorum aggregation continues with device A alone), and device B's
// Participant reconnects under backoff and rejoins at the next broadcast.
//
// The federation runs under the delta wire codec — negotiated in the join
// frame, bit-exact with respect to the default dense float32 encoding —
// and the byte counters report the traffic each connection actually put on
// the wire, whatever the codec.
//
//	go run ./examples/federation
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fedpower"
)

const (
	rounds   = 60
	interval = 0.5 // evaluation control interval [s]
	seed     = 10  // the fleet's root seed; each device's streams are keyed on (seed, id)
)

// codec is the wire encoding both ends negotiate: delta ships float32
// bit-pattern differences against a per-connection shadow of the last
// exchanged model — the training run is bit-identical to the dense default.
var codec = fedpower.DeltaCodec()

func main() {
	table := fedpower.JetsonNanoTable()
	params := fedpower.DefaultControllerParams(table.Len())
	initial := fedpower.NewController(params, rand.New(rand.NewSource(99))).ModelParams()

	srv, err := fedpower.NewServer("127.0.0.1:0", 2, rounds)
	if err != nil {
		log.Fatal(err)
	}
	// Fault tolerance: a round needs only one surviving update to commit,
	// a device that misses the 10 s deadline is dropped (and may rejoin),
	// and a silent connection cannot stall the join phase.
	srv.Quorum = 1
	srv.RoundTimeout = 10 * time.Second
	srv.JoinTimeout = 10 * time.Second
	srv.OnDrop = func(id uint32, round int, err error) {
		fmt.Printf("server: round %d dropped device %d (%v)\n", round, id, err)
	}
	srv.Codec = codec
	// Teardown at process exit; the protocol outcome is already decided.
	defer func() { _ = srv.Close() }()
	fmt.Printf("aggregation server on %s — %d rounds, codec %s, %d B per model transfer\n\n",
		srv.Addr(), rounds, codec, codec.TransferSize(len(initial)))

	var wg sync.WaitGroup
	runDevice := func(name string, id uint32, appNames []string, flakyWrite int32, redialed chan struct{}) {
		defer wg.Done()
		if err := device(srv.Addr(), name, id, appNames, flakyWrite, redialed); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	wg.Add(2)
	go runDevice("device-A", 1, []string{"water-ns", "water-sp"}, 0, nil)
	// Device B's first connection dies on its 12th write — the round-11
	// model update — so the server drops it in round 11 and it rejoins.
	// Its backoff is a timer the scheduler may fire only after device A
	// has finished every remaining round alone, so the server waits after
	// round 11 until B has redialed.
	redialed := make(chan struct{})
	go runDevice("device-B", 2, []string{"ocean", "radix"}, 12, redialed)

	final, err := srv.Serve(initial, func(round int, _ []float64) {
		if round == 11 {
			<-redialed
		}
		if round%20 == 0 {
			fmt.Printf("server: round %d/%d aggregated\n", round, rounds)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	fmt.Printf("server: connection churn — %d drops, %d rejoins\n", srv.Drops(), srv.Rejoins())

	// Evaluate the shared policy greedily on unseen applications.
	fmt.Println("\nglobal policy on applications unseen by either device alone:")
	ctrl := fedpower.NewController(params, rand.New(rand.NewSource(0)))
	ctrl.SetModelParams(final)
	for _, name := range []string{"fft", "raytrace", "barnes", "cholesky"} {
		spec, err := fedpower.AppByName(name)
		if err != nil {
			log.Fatal(err)
		}
		dev := fedpower.NewDevice(table, fedpower.DefaultPowerModel(), rand.New(rand.NewSource(777)))
		dev.Load(fedpower.NewApp(spec))
		dev.SetLevel(table.Len() / 2)
		obs := dev.Step(interval)
		var rewardSum float64
		var state []float64
		const evalSteps = 30
		for t := 0; t < evalSteps && !dev.Done(); t++ {
			state = fedpower.StateVector(obs, state)
			dev.SetLevel(ctrl.GreedyAction(state))
			obs = dev.Step(interval)
			rewardSum += params.Reward.Reward(obs.NormFreq, obs.PowerW)
		}
		st := dev.Stats()
		fmt.Printf("  %-9s avg reward %+.3f, avg power %.2f W (budget %.1f W)\n",
			name, rewardSum/evalSteps, st.AvgPowerW(), params.Reward.PCritW)
	}
}

// flakyConn kills the underlying connection on its n-th write — a stand-in
// for a power-cycled device or a dropped link mid-round.
type flakyConn struct {
	net.Conn
	count *int32
	n     int32
}

func (c flakyConn) Write(p []byte) (int, error) {
	if atomic.AddInt32(c.count, 1) == c.n {
		_ = c.Conn.Close()
		return 0, errors.New("simulated link failure")
	}
	return c.Conn.Write(p)
}

// device runs one federated participant over TCP: the NeuralDevice the
// experiments train and `fedpower device` deploys, against the simulated
// processor — driven by the resilient Participant, which reconnects under
// capped-backoff retry when the link dies. flakyWrite > 0 rigs the first
// connection to fail on that write and closes redialed on the second dial.
func device(server, name string, id uint32, appNames []string, flakyWrite int32, redialed chan struct{}) error {
	specs := make([]fedpower.AppSpec, 0, len(appNames))
	for _, n := range appNames {
		spec, err := fedpower.AppByName(n)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	opts := fedpower.DefaultOptions()
	opts.Seed = seed
	nd := fedpower.NewNeuralDevice(opts, int64(id), specs)

	part := &fedpower.Participant{
		Addr:  server,
		ID:    id,
		Codec: codec,
		Retry: fedpower.Backoff{
			Attempts: 5,
			// In-process rounds are sub-millisecond, so the retry pacing
			// must be fast enough that the rigged device rejoins before
			// the server finishes the remaining rounds without it; real
			// deployments (`fedpower device`) keep human-scale backoff.
			Base:   2 * time.Millisecond,
			Jitter: rand.New(rand.NewSource(seed + int64(id))),
		},
	}
	if flakyWrite > 0 {
		var writes int32
		var dials int32
		part.Dialer = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			switch atomic.AddInt32(&dials, 1) {
			case 1:
				return flakyConn{Conn: c, count: &writes, n: flakyWrite}, nil
			case 2:
				close(redialed)
			}
			return c, nil
		}
	}

	if _, err := part.Run(nd); err != nil {
		return err
	}
	fmt.Printf("%s: done (%d reconnects, %d B sent, %d B received)\n",
		name, part.Reconnects(), part.BytesSent(), part.BytesReceived())
	return nil
}
