package experiment

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"fedpower/internal/fed"
)

// Seed-stream identifiers for the tree-scale scenario, disjoint from the
// other experiments' streams.
const (
	idTreeDevice = 400
	idTreeInit   = 930
	idTreeCodec  = 1300
)

// TreeScaleOptions configures a fleet-scale hierarchical federation over
// localhost TCP: a tree of fed.Aggregator processes between the root server
// and hundreds of leaf devices, each leaf a lightweight synthetic trainer so
// the measurement isolates the aggregation plane (connection handling,
// codec work, exact relays) from local training cost.
type TreeScaleOptions struct {
	// Topology is the "AxBxC" fan-out spec (fed.ParseTopology): "500" is a
	// flat 500-device server, "4x5x25" a 3-level tree with 500 leaves.
	Topology string
	// Rounds is the number of federated rounds.
	Rounds int
	// NumParams is the synthetic model size; the default 687 matches the
	// paper's implied policy-network parameter count.
	NumParams int
	// Seed drives the synthetic trainers and the initial model.
	Seed int64
	// Codec is the wire codec of every hop's model broadcasts (relay frames
	// bypass it by design — see fed wire.go).
	Codec fed.Codec
	// RoundTimeout, WriteTimeout and JoinTimeout apply at the root; interior
	// aggregators run with RoundTimeout halved so a slow subtree resolves
	// locally first.
	RoundTimeout time.Duration
	WriteTimeout time.Duration
	JoinTimeout  time.Duration
	// Parallelism bounds each hop's per-round worker width (fed.Server
	// Parallelism, applied at the root and every aggregator): 0 keeps the
	// default of one I/O worker per pooled connection plus GOMAXPROCS
	// accumulation shards. Every width yields bit-identical models.
	Parallelism int
	// Verify re-runs the same clients through the flat in-process runner and
	// checks the TCP tree produced bit-identical parameters every round.
	// Lossless codecs only (dense, delta): quantized codecs are stochastic
	// per stream and carry no tree-identity guarantee.
	Verify bool
}

// DefaultTreeScaleOptions returns the EXPERIMENTS.md fleet-scale scenario: a
// 3-level tree with 500 leaf devices, verified bit-identical to the flat
// federation.
func DefaultTreeScaleOptions() TreeScaleOptions {
	return TreeScaleOptions{
		Topology:     "4x5x25",
		Rounds:       5,
		NumParams:    687,
		Seed:         1,
		RoundTimeout: 60 * time.Second,
		WriteTimeout: 30 * time.Second,
		JoinTimeout:  60 * time.Second,
		Verify:       true,
	}
}

// Validate reports the first inconsistency.
func (o TreeScaleOptions) Validate() error {
	if _, err := fed.ParseTopology(o.Topology); err != nil {
		return err
	}
	if o.Rounds <= 0 {
		return fmt.Errorf("experiment: tree scale needs positive rounds, got %d", o.Rounds)
	}
	if o.NumParams <= 0 {
		return fmt.Errorf("experiment: tree scale needs positive model size, got %d", o.NumParams)
	}
	if o.RoundTimeout <= 0 {
		return fmt.Errorf("experiment: tree scale needs a positive round timeout")
	}
	return nil
}

// TreeScaleResult is the capacity measurement of one topology.
type TreeScaleResult struct {
	// Devices, Aggregators and Depth describe the deployed topology
	// (aggregators counts interior nodes only, not the root).
	Devices     int
	Aggregators int
	Depth       int
	// RoundsCompleted equals Rounds on a successful run.
	RoundsCompleted int
	// Elapsed is the wall-clock span of the federation (join through final
	// model); RoundsPerSec is the committed-round throughput over it.
	Elapsed      time.Duration
	RoundsPerSec float64
	// RootBytesSent/Received count the root server's model-bearing traffic;
	// UplinkBytesSent/Received sum every aggregator's parent-link traffic —
	// divided by Aggregators and RoundsCompleted they give the per-hop,
	// per-round relay cost.
	RootBytesSent       int64
	RootBytesReceived   int64
	UplinkBytesSent     int64
	UplinkBytesReceived int64
	// LeavesCommitted is the leaf population behind the last committed
	// round — Devices when no subtree dropped.
	LeavesCommitted int
	// Drops and Rejoins aggregate connection churn across every hop.
	Drops   int64
	Rejoins int64
	// FlatMatch reports the Verify outcome: true when the flat in-process
	// reference reproduced the TCP tree bit-for-bit on every round. False
	// with Verify off.
	FlatMatch bool
	// FinalChecksum is an FNV-1a hash of the final model's bit patterns, a
	// compact replayability fingerprint.
	FinalChecksum uint64
}

// treeHash is a splitmix64-style mixer: the synthetic trainers must be pure
// functions of (seed, leaf, round, param) so the TCP run and the in-process
// verification run see byte-identical client behaviour.
func treeHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// syntheticTrainer perturbs each broadcast parameter by a deterministic
// pseudo-random step spanning ~19 binary orders of magnitude, exercising the
// exact-relay arithmetic far harder than a converged training run would.
func syntheticTrainer(seed int64, leaf int) fed.ClientFunc {
	base := treeHash(uint64(seed)*0x100000001b3 + uint64(leaf) + idTreeDevice)
	return func(round int, global []float64) ([]float64, error) {
		out := make([]float64, len(global))
		for i := range global {
			h := treeHash(base ^ treeHash(uint64(round)<<32|uint64(i)))
			step := math.Ldexp(float64(h>>40)/float64(1<<24), int(h%19)-9)
			if h>>39&1 == 1 {
				step = -step
			}
			out[i] = global[i] + step
		}
		return out, nil
	}
}

// treeInit builds the deterministic initial model for the scenario.
func treeInit(seed int64, numParams int) []float64 {
	init := make([]float64, numParams)
	base := treeHash(uint64(seed) + idTreeInit)
	for i := range init {
		h := treeHash(base + uint64(i))
		init[i] = math.Ldexp(float64(h>>40)/float64(1<<24), int(h%7)-3)
	}
	return init
}

// paramsChecksum fingerprints a parameter vector's exact bit patterns.
func paramsChecksum(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range params {
		bits := math.Float64bits(p)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// RunTreeScale deploys the topology over localhost TCP, runs the federation
// with the real wall clock, and returns its capacity measurement.
func RunTreeScale(o TreeScaleOptions) (*TreeScaleResult, error) {
	return RunTreeScaleWithClock(o, time.Now)
}

// RunTreeScaleWithClock is RunTreeScale with an explicit clock; wall-clock
// time is the measurement target (aggregation throughput), not a simulation
// input, so tests inject a fake and still exercise the full TCP fleet.
func RunTreeScaleWithClock(o TreeScaleOptions, now Clock) (*TreeScaleResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	topo, err := fed.ParseTopology(o.Topology)
	if err != nil {
		return nil, err
	}
	numLeaves := topo.LeafCount()
	codec := o.Codec
	if codec == (fed.Codec{}) {
		// The zero Codec means raw float64 in process but dense float32 on
		// the wire; pin the explicit dense codec so the Verify reference
		// emulates exactly what TCP ships.
		codec = fed.DenseCodec()
	}
	codec = codec.Seeded(subseed(o.Seed, idTreeCodec))

	clients := make([]fed.ClientFunc, numLeaves)
	for i := range clients {
		clients[i] = syntheticTrainer(o.Seed, i)
	}

	res := &TreeScaleResult{Devices: numLeaves, Depth: topo.Depth()}

	root, err := fed.NewServer("127.0.0.1:0", len(topo.Children)+topo.Leaves, o.Rounds)
	if err != nil {
		return nil, err
	}
	defer func() { _ = root.Close() }()
	root.Codec = codec
	root.RoundTimeout = o.RoundTimeout
	root.WriteTimeout = o.WriteTimeout
	root.JoinTimeout = o.JoinTimeout
	root.Parallelism = o.Parallelism

	// Deploy the tree depth-first, assigning leaves the same pre-order
	// global indices fed.RunTree uses (a node's direct leaves first, then
	// each child subtree): leaf i dials with ID i so its codec streams match
	// the in-process link seeding and the Verify comparison is exact.
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		aggs      []*fed.Aggregator
		aggErrs   []error
		leafErrs  = make([]error, numLeaves)
		nextAggID = uint32(10_000)
	)
	var deploy func(parentAddr string, node *fed.TreeNode, leafBase int) error
	deploy = func(parentAddr string, node *fed.TreeNode, leafBase int) error {
		for l := 0; l < node.Leaves; l++ {
			leaf := leafBase + l
			p := &fed.Participant{
				Addr:  parentAddr,
				ID:    uint32(leaf),
				Codec: codec,
				Retry: fed.Backoff{Attempts: 3, Base: 10 * time.Millisecond},
			}
			wg.Add(1)
			go func(leaf int, p *fed.Participant) {
				defer wg.Done()
				_, leafErrs[leaf] = p.Run(clients[leaf])
			}(leaf, p)
		}
		offset := node.Leaves
		for _, child := range node.Children {
			agg, err := fed.NewAggregator("127.0.0.1:0", len(child.Children)+child.Leaves)
			if err != nil {
				return err
			}
			nextAggID++
			agg.Parent = parentAddr
			agg.ID = nextAggID
			agg.Uplink = codec
			agg.Children.Codec = codec
			agg.Children.RoundTimeout = o.RoundTimeout / 2
			agg.Children.WriteTimeout = o.WriteTimeout
			agg.Children.JoinTimeout = o.JoinTimeout
			agg.Children.Parallelism = o.Parallelism
			agg.Retry = fed.Backoff{Attempts: 3, Base: 10 * time.Millisecond}
			mu.Lock()
			aggs = append(aggs, agg)
			mu.Unlock()
			wg.Add(1)
			go func(agg *fed.Aggregator) {
				defer wg.Done()
				if _, err := agg.Run(); err != nil {
					mu.Lock()
					aggErrs = append(aggErrs, err)
					mu.Unlock()
				}
			}(agg)
			if err := deploy(agg.Addr(), child, leafBase+offset); err != nil {
				return err
			}
			offset += child.LeafCount()
		}
		return nil
	}
	if err := deploy(root.Addr(), topo, 0); err != nil {
		return nil, err
	}
	res.Aggregators = len(aggs)

	initial := treeInit(o.Seed, o.NumParams)
	var treeRounds []uint64
	start := now()
	final, serveErr := root.Serve(append([]float64(nil), initial...), func(round int, g []float64) {
		res.RoundsCompleted = round
		treeRounds = append(treeRounds, paramsChecksum(g))
	})
	res.Elapsed = now().Sub(start)
	wg.Wait()
	if serveErr != nil {
		return nil, fmt.Errorf("experiment: tree root: %w", serveErr)
	}
	for _, err := range aggErrs {
		return nil, fmt.Errorf("experiment: aggregator: %w", err)
	}
	for i, err := range leafErrs {
		if err != nil {
			return nil, fmt.Errorf("experiment: leaf %d: %w", i, err)
		}
	}

	if s := res.Elapsed.Seconds(); s > 0 {
		res.RoundsPerSec = float64(res.RoundsCompleted) / s
	}
	res.RootBytesSent = root.BytesSent()
	res.RootBytesReceived = root.BytesReceived()
	res.LeavesCommitted = int(root.Leaves())
	res.Drops = root.Drops()
	res.Rejoins = root.Rejoins()
	for _, agg := range aggs {
		res.UplinkBytesSent += agg.UplinkBytesSent()
		res.UplinkBytesReceived += agg.UplinkBytesReceived()
		res.Drops += agg.Children.Drops()
		res.Rejoins += agg.Children.Rejoins()
	}
	res.FinalChecksum = paramsChecksum(final)

	if o.Verify {
		flat := append([]float64(nil), initial...)
		fedClients := make([]fed.Client, numLeaves)
		for i := range clients {
			fedClients[i] = clients[i]
		}
		var flatRounds []uint64
		if err := fed.RunParallelCodec(flat, fedClients, o.Rounds, 4, codec, func(round int, g []float64) {
			flatRounds = append(flatRounds, paramsChecksum(g))
		}); err != nil {
			return nil, fmt.Errorf("experiment: flat reference: %w", err)
		}
		res.FlatMatch = len(flatRounds) == len(treeRounds)
		for i := range treeRounds {
			if !res.FlatMatch || flatRounds[i] != treeRounds[i] {
				res.FlatMatch = false
				break
			}
		}
	}
	return res, nil
}
