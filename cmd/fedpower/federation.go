package main

import (
	"errors"
	"flag"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"fedpower"
	"fedpower/internal/experiment"
	"fedpower/internal/workload"
)

// node is the configuration of a serve or relay process.
type node struct {
	addr                                    string
	devices, rounds, quorum, parallel       int
	seed                                    int64
	roundTimeout, writeTimeout, joinTimeout time.Duration
	codec                                   fedpower.Codec
	out, model                              string
	parent, fallbacks                       string // relay
	id                                      idValue
}

// nodeFlags registers the flags serve and relay share.
func nodeFlags(fs *flag.FlagSet, n *node) {
	fs.StringVar(&n.addr, "addr", "127.0.0.1:7070", "listen address")
	fs.IntVar(&n.devices, "devices", 2, "number of device clients to wait for")
	fs.Int64Var(&n.seed, "seed", 1, "seed for the initial global model and the quantized codecs' rounding")
	fs.IntVar(&n.quorum, "quorum", 0, "minimum updates per round to commit (0 = all devices)")
	fs.DurationVar(&n.roundTimeout, "round-timeout", 0, "per-round update deadline per device (0 = wait forever)")
	fs.DurationVar(&n.writeTimeout, "write-timeout", 0, "per-broadcast write deadline per device (0 = none)")
	fs.DurationVar(&n.joinTimeout, "join-timeout", 10*time.Second, "deadline for an accepted connection's join frame (0 = none)")
	fs.IntVar(&n.parallel, "parallel", 0, "round worker width: 0 = one I/O worker per device plus GOMAXPROCS accumulation shards; any width is bit-identical")
	fs.StringVar(&n.out, "out", "", "write the final model as comma-separated text to this file instead of stdout")
	fs.StringVar(&n.model, "model", "", "also write the final model in the binary .fpm format (loadable with fedpower.LoadModel)")
	codecVar(fs, &n.codec)
}

func serveFlags(fs *flag.FlagSet, j *job) {
	nodeFlags(fs, &j.node)
	fs.IntVar(&j.node.rounds, "rounds", 100, "federated rounds R")
}

func relayFlags(fs *flag.FlagSet, j *job) {
	nodeFlags(fs, &j.node)
	fs.StringVar(&j.node.parent, "parent", "", "the parent server this aggregator relays to (required)")
	fs.StringVar(&j.node.fallbacks, "parent-fallbacks", "", "comma-separated alternate parents tried when -parent stops answering")
	j.node.id = 10001
	fs.Var(&j.node.id, "id", "this node's client `ID` on the parent link")
}

func deviceFlags(fs *flag.FlagSet, j *job) {
	p := &j.part
	fs.StringVar(&p.Addr, "server", "127.0.0.1:7070", "aggregation server address")
	fs.Var((*idValue)(&p.ID), "id", "client `ID`: a stable aggregation slot across reconnects (0 = anonymous)")
	fs.IntVar(&p.Retry.Attempts, "retries", 3, "consecutive transport failures tolerated before giving up")
	fs.DurationVar(&p.Retry.Base, "retry-base", 100*time.Millisecond, "initial reconnect backoff (doubles per consecutive failure)")
	fs.DurationVar(&p.Retry.Max, "retry-max", 5*time.Second, "reconnect backoff cap")
	codecVar(fs, &p.Codec)
	fs.StringVar(&j.trainApps, "apps", "fft,lu", "comma-separated training applications (SPLASH-2 names)")
	fs.IntVar(&j.opts.StepsPerRound, "steps", 100, "control steps per round T")
	fs.Float64Var(&j.opts.IntervalS, "interval", 0.5, "DVFS control interval in simulated seconds")
	fs.Int64Var(&j.opts.Seed, "seed", 42, "device random seed")
	fs.StringVar(&j.save, "save", "", "write the final global model to this .fpm file")
}

// apply sets the per-hop round policy on s: the root's server or a
// relay's children.
func (j *job) apply(s *fedpower.Server, peer string) {
	n := &j.node
	s.Quorum = n.quorum
	s.Parallelism = n.parallel
	s.RoundTimeout = n.roundTimeout
	s.WriteTimeout = n.writeTimeout
	s.JoinTimeout = n.joinTimeout
	s.Codec = n.codec.Seeded(n.seed)
	s.OnDrop = func(id uint32, round int, err error) {
		j.log.Printf("round %d: dropped %s %d: %v", round, peer, id, err)
	}
}

// writeModel writes a node's final model: binary to -model when set, and
// comma-separated text to -out or, without -out, to stdout.
func (j *job) writeModel(final []float64) error {
	if j.node.model != "" {
		if err := fedpower.SaveModel(j.node.model, final); err != nil {
			return err
		}
		j.log.Printf("binary model written to %s", j.node.model)
	}
	parts := make([]string, len(final))
	for i, p := range final {
		parts[i] = strconv.FormatFloat(p, 'g', -1, 64)
	}
	text := strings.Join(parts, ",") + "\n"
	if j.node.out == "" {
		_, err := j.out.Write([]byte(text))
		return err
	}
	if err := os.WriteFile(j.node.out, []byte(text), 0o644); err != nil {
		return err
	}
	j.log.Printf("final global model written to %s", j.node.out)
	return nil
}

// serve runs the root: it waits for -devices clients, drives R rounds of
// synchronous federated averaging and writes the final global model.
func (j *job) serve() error {
	n := &j.node
	initial := fedpower.NewController(j.opts.Core, rand.New(rand.NewSource(n.seed))).ModelParams()
	srv, err := fedpower.NewServer(n.addr, n.devices, n.rounds)
	if err != nil {
		return err
	}
	// Serve's return value decides the protocol outcome; Close only tears
	// down.
	defer func() { _ = srv.Close() }()
	j.apply(srv, "device")
	j.log.Printf("listening on %s for %d devices, %d rounds, %d model parameters (codec %s, %d B per transfer)",
		srv.Addr(), n.devices, n.rounds, len(initial), srv.Codec, srv.Codec.TransferSize(len(initial)))
	final, err := srv.Serve(initial, func(round int, global []float64) {
		if round%10 == 0 || round == n.rounds {
			j.log.Printf("round %d/%d aggregated (sent %d B, received %d B so far)",
				round, n.rounds, srv.BytesSent(), srv.BytesReceived())
		}
	})
	if err != nil {
		return err
	}
	if srv.Drops() > 0 || srv.Rejoins() > 0 {
		j.log.Printf("connection churn: %d drops, %d rejoins", srv.Drops(), srv.Rejoins())
	}
	return j.writeModel(final)
}

// relay runs an interior tree node: a server to the -devices children below
// it (devices or further relays) and a client to -parent, relaying exact
// sub-sums upward each round.
func (j *job) relay() error {
	n := &j.node
	if n.parent == "" {
		return errors.New("-parent is required")
	}
	agg, err := fedpower.NewAggregator(n.addr, n.devices)
	if err != nil {
		return err
	}
	defer func() { _ = agg.Close() }()
	agg.Parent = n.parent
	for _, f := range strings.Split(n.fallbacks, ",") {
		if f = strings.TrimSpace(f); f != "" {
			agg.Fallbacks = append(agg.Fallbacks, f)
		}
	}
	agg.ID = uint32(n.id)
	agg.Retry = fedpower.Backoff{Attempts: 10, Base: 100 * time.Millisecond, Max: 5 * time.Second}
	j.apply(agg.Children, "child")
	agg.Uplink = agg.Children.Codec
	j.log.Printf("listening on %s for %d children, relaying to %s (codec %s, id %d)",
		agg.Addr(), n.devices, n.parent, agg.Uplink, agg.ID)
	final, err := agg.Run()
	if err != nil {
		return err
	}
	j.log.Printf("relay done: %d B up / %d B down on the parent link, %d reconnects",
		agg.UplinkBytesSent(), agg.UplinkBytesReceived(), agg.Reconnects())
	return j.writeModel(final)
}

// device runs one edge device: T control steps of Algorithm 1 per round,
// then the model exchange, reconnecting under capped exponential backoff
// (jittered from the device's own stream so a recovering fleet spreads
// out) and rejoining at the next broadcast after a dropped link.
func (j *job) device() error {
	trainRound, err := j.deviceTrainer()
	if err != nil {
		return err
	}
	part := &j.part
	part.Codec = part.Codec.Seeded(j.opts.Seed)
	part.Retry.Jitter = experiment.DeviceRNG(j.opts.Seed, int64(part.ID), 4)
	j.log.Printf("participating via %s as device %d (codec %s), training on %s", part.Addr, part.ID, part.Codec, j.trainApps)
	final, err := part.Run(trainRound)
	if err != nil {
		return err
	}
	if part.Reconnects() > 0 {
		j.log.Printf("survived %d reconnects", part.Reconnects())
	}
	j.log.Printf("training complete: %d params in final global model, %d B sent, %d B received",
		len(final), part.BytesSent(), part.BytesReceived())
	if j.save != "" {
		if err := fedpower.SaveModel(j.save, final); err != nil {
			return err
		}
		j.log.Printf("final model saved to %s", j.save)
	}
	return nil
}

// deviceTrainer builds the device's round: T control steps of Algorithm 1
// on an experiment.NeuralDevice, the type the experiments train, keyed on
// (-seed, -id) as they key theirs. Devices that share a seed but not an ID
// train different trajectories.
func (j *job) deviceTrainer() (fedpower.FederatedClientFunc, error) {
	specs, err := workload.ByNames(strings.Split(strings.ReplaceAll(j.trainApps, " ", ""), ",")...)
	if err != nil {
		return nil, err
	}
	d := experiment.NewNeuralDevice(j.opts, int64(j.part.ID), specs)
	return func(round int, global []float64) ([]float64, error) {
		params, err := d.TrainRound(round, global)
		j.log.Printf("round %d: avg training reward %.3f, tau %.3f, buffer %d/%d",
			round, d.RoundReward(), d.Ctrl.Tau(), d.Ctrl.Buffer().Len(), d.Ctrl.Buffer().Cap())
		return params, err
	}, nil
}
