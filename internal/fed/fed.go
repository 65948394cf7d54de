// Package fed implements the paper's federated policy optimisation
// (Algorithm 2, federated averaging after McMahan et al.): a central
// aggregation server and N homogeneous clients alternate, over R rounds,
// between local policy optimisation on each device and synchronous
// parameter averaging on the server.
//
// # Round engines
//
// Algorithm 2 is one loop — broadcast θ_r, every device optimises locally,
// average, repeat — and the package spells it exactly twice, once per
// transport:
//
//   - Function-call transport: engine.run (this file). Run, RunParallel,
//     RunParallelCodec, RunSampled, RunWithConfig and RunTree
//     are argument validation plus one call into it; what distinguishes
//     them is data on the engine value — the cohort (everyone, or a seeded
//     per-round draw expressed as a per-client sit-out mask), the failure
//     policy and quorum, the per-client codec link, and the aggregation
//     rule (the flat mean through one nn.ParamSum per run, or a topology's
//     exact subtree sums rounded once at the root). Every failure it
//     returns is a *RoundError naming round, phase and client. It is
//     deterministic at any width and is what the experiment harness uses.
//   - Socket transport: Server.round over a session (server.go), shared
//     verbatim by Server.Serve and Aggregator. It runs the identical
//     protocol across real processes — the deployment shape of the paper,
//     one process per edge device.
//
// The two stay separate on purpose. A function-call exchange is one
// fallible step per client, so the in-process round is a single
// par.ForEach fan-out. A socket round must issue every broadcast write
// before it waits on any update, so that all clients' deadline windows
// overlap instead of queueing behind the slowest link: broadcast and
// collect are two fan-outs with the drop/quorum decision between them, run
// on a persistent par.Pool over cap-guarded session scratch so that a
// steady-state round allocates nothing (TestServerRoundAllocFree gates 0
// allocations per round). Folding both behind one per-link "exchange"
// would make the shared loop branch on which transport called it — and
// cost the TCP round either its overlap or its allocation bound.
//
// What the engines share is everything below the loop: the Client
// interface, the parameter codec and its per-link per-direction state
// (codec.go: dense float32 by default, whose size matches the paper's
// reported 2.8 kB per transfer, with opt-in bit-exact delta and lossy
// quantized-delta encodings that cut the model-bearing bytes 2–4×), the
// exact accumulator arithmetic of internal/nn, the quorum rule, the
// RoundHook, and the *RoundError / Phase vocabulary. That is why a dense or
// delta in-process run (RunParallelCodec, RunConfig.Codec,
// TreeConfig.Codec) is bit-identical to the TCP federation under the same
// codec, and why any aggregation tree on either transport reproduces the
// flat federation bit-for-bit.
//
// # Fault tolerance
//
// Real edge fleets have stragglers, dropped links and power-cycled devices,
// so the TCP transport degrades gracefully instead of wedging:
//
//   - Deadlines. Every server I/O phase is bounded: JoinTimeout on the
//     post-accept join frame, WriteTimeout on each broadcast write, and
//     RoundTimeout on each round's update read, all placed with the
//     injected Server.Clock (nil = time.Now).
//   - Drop, don't abort. A client that misses a deadline, answers for the
//     wrong round, sends the wrong shape, or whose socket dies is dropped
//     from the pool and its connection closed — a half-read frame can
//     therefore never desynchronise a later round, because a dropped
//     device always returns on a fresh connection.
//   - Quorum aggregation. A round commits when at least Server.Quorum
//     updates survived (default: all clients); the new global model is the
//     unweighted mean of exactly the survivors, in stable (client ID, join
//     sequence) order, so a dead device's stale parameters never leak into
//     the aggregate. A round below quorum aborts the protocol with a
//     *RoundError naming the round and phase.
//   - Rejoin. The accept loop runs for the whole session; a dropped device
//     that reconnects (Participant.Run does this automatically, under
//     capped exponential backoff with seeded jitter) is admitted into the
//     pool at the next round boundary and receives that round's broadcast.
//
// The in-process engine mirrors these semantics: RunWithConfig applies the
// same quorum rule with a ClientErrorPolicy deciding whether a failing
// client aborts the run (FailFast) or just sits the round out (DropRound).
//
// # Goroutine ownership
//
// Both engines follow strict ownership rules, machine-checked where
// possible by the golaunch and slotrace analyzers (cmd/fedlint):
//
//   - The in-process engine launches nothing itself. Its one fan-out is a
//     par.ForEach whose task writes only state selected by its own index
//     (its update slot, its drop record, its codec link) and reads only
//     the round's broadcast snapshot and sit-out mask; ForEach's join is
//     the happens-before edge that publishes the slots to the aggregation,
//     which consumes them in client order. Hooks run on the calling
//     goroutine.
//   - Server.Serve owns every connection and the accept loop. The accept
//     loop is launched once per session, owns the listener until it
//     closes, and hands joined connections to the session through a
//     channel it closes on exit; closing the session closes the listener
//     and drains that channel, so the loop can never outlive Serve nor
//     leak a connection.
//   - Round workers are a persistent par.Pool spawned once per session and
//     parked on a channel between phases — no goroutine is launched per
//     round. The pool's task is bound once; the coordinating goroutine
//     writes a phase's inputs (phase, frame, round, shape, shard count)
//     strictly before Pool.Run and reads the slots strictly after it, the
//     pool's release and join edges ordering both directions.
//   - Workers write only state selected by their own index: errs[i],
//     ns[i], updates[i], chunkLeaves[i], shards[i], and the connection
//     state (codec shadows, scratch, reusable message) reached through
//     pool[i]. Drops, admits and the quorum decision happen on the
//     coordinating goroutine after the join.
//   - Counters (bytes, drops, rejoins, leaves) accumulate in the session's
//     roundStats on the coordinating goroutine only and are published
//     under Server.mu once per round by flushStats; the parallel phases
//     never touch the mutex. The OnDrop observer runs on the coordinating
//     goroutine only.
//   - The client side (Conn, Participant) is single-goroutine by
//     construction: Dial, Participate, Run and Close must be called from
//     one goroutine.
package fed

import (
	"fmt"
	"math/rand"

	"fedpower/internal/nn"
	"fedpower/internal/par"
)

// Client is one federated participant: a device hosting a local power
// controller. TrainRound receives the current global model, performs the
// round's local optimisation (T environment steps with periodic updates, in
// the paper's instantiation), and returns the locally optimised parameters.
// The returned slice is copied by the orchestrator, so implementations may
// return their live parameter vector.
type Client interface {
	TrainRound(round int, global []float64) ([]float64, error)
}

// ClientFunc adapts a plain function to the Client interface.
type ClientFunc func(round int, global []float64) ([]float64, error)

// TrainRound calls f.
func (f ClientFunc) TrainRound(round int, global []float64) ([]float64, error) {
	return f(round, global)
}

// RoundHook is invoked after every aggregation with the 1-based round number
// and the new global model; the experiment harness uses it to run the
// per-round greedy evaluation of §IV-A. The slice must not be retained.
type RoundHook func(round int, global []float64)

// engine is the in-process round loop's per-run data: everything the
// exported Run* entry points differ in. The zero value of every field but
// rounds is the paper's setting — every client every round, sequential,
// raw float64 exchange, abort on the first failure, the flat mean.
type engine struct {
	rounds int
	width  int // clients training concurrently within a round; <= 1 is sequential
	codec  Codec
	hook   RoundHook
	// rng, when non-nil, draws each round's cohort: every client joins
	// independently with probability fraction, the rest sit the round out.
	rng      *rand.Rand
	fraction float64
	// dropRound makes a failing client sit the round out instead of
	// aborting the run; the round then commits iff quorum updates survived.
	dropRound bool
	quorum    int
	// aggregate, when non-nil, replaces the paper's flat mean: it
	// overwrites dst (the global model) with the round's surviving updates,
	// given in client order, folded by the run's rule.
	aggregate func(dst []float64, locals [][]float64) error
}

// run executes Algorithm 2 over function-call links, starting from (and
// finally overwriting) global:
//
//	for r = 1..R:
//	    broadcast θ_r to the round's cohort
//	    each client locally optimises and returns θ_r^n
//	    θ_{r+1} = aggregate of the survivors' θ_r^n
//
// Up to width clients train concurrently; each writes only its own update
// slot, drop record and codec link and reads only the shared broadcast
// snapshot and sit-out mask, and the aggregation consumes the slots in
// client order after the fan-out has joined — so the run is bit-identical
// at every width. Every failure is a *RoundError.
func (e engine) run(global []float64, clients []Client) error {
	if len(clients) == 0 {
		return fmt.Errorf("fed: no clients")
	}
	if e.rounds <= 0 {
		return fmt.Errorf("fed: round count %d must be positive", e.rounds)
	}
	slots := make([][]float64, len(clients))
	for i := range slots {
		slots[i] = make([]float64, len(global))
	}
	links := newCodecLinks(e.codec, len(clients))
	broadcast := make([]float64, len(global))
	sitOut := make([]bool, len(clients))
	dropped := make([]error, len(clients))
	locals := make([][]float64, 0, len(clients))
	// The flat mean's exact sum: one per run, reset every round (it holds
	// an Accum per parameter), and never touched by the fan-out's task.
	var sum *nn.ParamSum
	if e.aggregate == nil {
		sum = nn.NewParamSum(len(global))
	}
	dropRound := e.dropRound // the task captures one bool, not a copy of e
	for r := 1; r <= e.rounds; r++ {
		copy(broadcast, global)
		if e.rng != nil {
			drawCohort(sitOut, e.fraction, e.rng)
		}
		err := par.ForEach(e.width, len(clients), func(i int) error {
			dropped[i] = nil
			if sitOut[i] {
				return nil
			}
			view := broadcast
			if links != nil {
				// Wire emulation: the client sees the decoded broadcast, as
				// over TCP. A codec failure is a harness bug, not a flaky
				// device, so it aborts regardless of the error policy.
				var cerr error
				if view, cerr = links[i].broadcast(broadcast); cerr != nil {
					return &RoundError{Round: r, Phase: PhaseBroadcast, Client: i, Err: cerr}
				}
			}
			updated, err := clients[i].TrainRound(r, view)
			if err == nil && len(updated) != len(global) {
				err = fmt.Errorf("returned %d params, want %d", len(updated), len(global))
			}
			if err != nil {
				wrapped := &RoundError{Round: r, Phase: PhaseTrain, Client: i, Err: err}
				if !dropRound {
					return wrapped
				}
				// Absorb the failure in the client's own slot and let the
				// quorum decision below judge the joined round.
				dropped[i] = wrapped
				return nil
			}
			if links != nil {
				decoded, cerr := links[i].update(updated)
				if cerr != nil {
					return &RoundError{Round: r, Phase: PhaseCollect, Client: i, Err: cerr}
				}
				updated = decoded
			}
			copy(slots[i], updated)
			return nil
		})
		if err != nil {
			return err
		}
		// Collect survivors in stable client order — the order, not the
		// completion sequence, determines the average.
		locals = locals[:0]
		var firstErr error
		for i := range clients {
			switch {
			case sitOut[i]:
				// Not drawn this round: neither a survivor nor a failure.
			case dropped[i] == nil:
				locals = append(locals, slots[i])
			case firstErr == nil:
				firstErr = dropped[i]
			}
		}
		if len(locals) < e.quorum {
			return &RoundError{Round: r, Phase: PhaseCollect, Client: -1,
				Err: fmt.Errorf("%d of %d clients delivered, quorum %d: %w",
					len(locals), len(clients), e.quorum, firstErr)}
		}
		if sum != nil {
			flatMean(sum, global, locals)
		} else if err := e.aggregate(global, locals); err != nil {
			return &RoundError{Round: r, Phase: PhaseCollect, Client: -1, Err: err}
		}
		if e.hook != nil {
			e.hook(r, global)
		}
	}
	return nil
}

// flatMean is the paper's aggregation rule: it overwrites dst with the
// unweighted mean of locals, summed exactly in sum and rounded once.
func flatMean(sum *nn.ParamSum, dst []float64, locals [][]float64) {
	sum.Reset()
	for _, l := range locals {
		sum.Add(l)
	}
	sum.Mean(dst, len(locals))
}

// drawCohort marks who sits the next round out: every client joins
// independently with probability fraction — one Float64 per client, in
// client order — and when nobody was drawn one client is picked uniformly,
// because an empty round would stall the protocol.
func drawCohort(sitOut []bool, fraction float64, rng *rand.Rand) {
	drawn := 0
	for i := range sitOut {
		sitOut[i] = rng.Float64() >= fraction
		if !sitOut[i] {
			drawn++
		}
	}
	if drawn == 0 {
		sitOut[rng.Intn(len(sitOut))] = false
	}
}

// newCodecLinks builds one wire-emulation link per client for an active
// codec, or nil when the codec is the zero value (raw float64 exchange).
// Each link is touched only by its own client's worker goroutine, so the
// emulated wire is race-free at any parallel width.
func newCodecLinks(codec Codec, n int) []*codecLink {
	if !codec.active() {
		return nil
	}
	links := make([]*codecLink, n)
	for i := range links {
		links[i] = newCodecLink(codec, i)
	}
	return links
}

// Run executes R rounds of federated averaging over the given clients,
// starting from (and finally overwriting) the global parameter vector:
//
//	for r = 1..R:
//	    broadcast θ_r to all clients
//	    each client locally optimises and returns θ_r^n
//	    θ_{r+1} = 1/N · Σ_n θ_r^n        (synchronous, unweighted)
//
// Clients are executed sequentially in slice order, which makes experiment
// runs bit-for-bit reproducible; the aggregation result is identical to a
// parallel execution because FedAvg only consumes the end-of-round
// parameters. hook may be nil.
func Run(global []float64, clients []Client, rounds int, hook RoundHook) error {
	return RunParallelCodec(global, clients, rounds, 1, Codec{}, hook)
}

// RunParallel is Run with up to width clients training concurrently within
// each round. Every client owns its slot in the round's results, the
// aggregation consumes the slots in stable client order, and the round
// barrier (all clients finish before averaging) is unchanged — so the
// averaged parameters, and therefore the entire run, are bit-identical to
// the sequential Run whatever the scheduling. Clients must not share
// mutable state with each other for this to hold (the experiment harness's
// devices derive independent RNG streams per client). width <= 1 runs
// sequentially; hook always runs on the calling goroutine.
func RunParallel(global []float64, clients []Client, rounds, width int, hook RoundHook) error {
	return RunParallelCodec(global, clients, rounds, width, Codec{}, hook)
}

// RunParallelCodec is RunParallel with every client's exchange passed
// through the parameter codec, emulating the TCP transport's wire semantics
// in process: broadcasts reach clients as the decoded wire view (float64
// values of float32 wire parameters) and updates are aggregated from their
// decoded wire views, with per-client per-direction codec state exactly as
// a fleet of real connections would hold. For the lossless codecs the run
// is bit-identical to the TCP federation under the same codec at any width.
// The zero Codec disables emulation, making this identical to RunParallel.
func RunParallelCodec(global []float64, clients []Client, rounds, width int, codec Codec, hook RoundHook) error {
	return engine{rounds: rounds, width: width, codec: codec, hook: hook}.run(global, clients)
}

// RunSampled executes federated averaging with partial participation: each
// round, every client is included independently with probability fraction
// (at least one is always included — an empty round would stall the
// protocol). This is the client-sampling dimension of the original FedAvg
// (McMahan et al.'s parameter C); the paper's §III-B setting — "each client
// participates in all R rounds" — is fraction = 1. Sampling draws from rng
// so runs are reproducible.
func RunSampled(global []float64, clients []Client, fraction float64, rounds int, rng *rand.Rand, hook RoundHook) error {
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("fed: participation fraction %v out of (0,1]", fraction)
	}
	if rng == nil {
		return fmt.Errorf("fed: RunSampled requires a random source")
	}
	return engine{rounds: rounds, hook: hook, rng: rng, fraction: fraction}.run(global, clients)
}

// ClientErrorPolicy decides what RunWithConfig does when a client's
// TrainRound fails (or returns the wrong parameter shape).
type ClientErrorPolicy int

const (
	// FailFast aborts the run on the first client error — Run's behavior,
	// and the right policy when clients are in-process and a failure means
	// a bug rather than a flaky device.
	FailFast ClientErrorPolicy = iota
	// DropRound excludes the failing client from the current round's
	// average; the client is offered the next round's broadcast again. This
	// mirrors the TCP server's drop-and-rejoin semantics.
	DropRound
)

// RunConfig configures RunWithConfig, the fault-tolerant in-process
// orchestrator.
type RunConfig struct {
	// Rounds is the number of federated rounds R.
	Rounds int
	// Quorum is the minimum number of successful client updates a round
	// needs to commit; 0 means all clients. Only meaningful with DropRound
	// (under FailFast any failure aborts before the quorum check).
	Quorum int
	// OnClientError selects the failure policy; the zero value is
	// FailFast.
	OnClientError ClientErrorPolicy
	// Hook, if non-nil, runs after every aggregation.
	Hook RoundHook
	// Parallelism bounds how many clients train concurrently within a
	// round; <= 1 (the zero value) runs them sequentially. Results are
	// bit-identical at any width: survivors are averaged in stable client
	// order and the quorum decision reads the joined round's outcome.
	Parallelism int
	// Codec, when explicitly constructed (DenseCodec, DeltaCodec,
	// QuantCodec, ParseCodec), passes every exchange through the parameter
	// codec as RunParallelCodec does; the zero value keeps the historical
	// raw float64 exchange.
	Codec Codec
}

// RunWithConfig executes federated averaging with the TCP transport's
// quorum/dropout semantics: each round every client is offered the
// broadcast; under DropRound a failing client is excluded from that round's
// aggregation (its error is absorbed) and the round commits as long as at
// least Quorum updates succeeded, averaging exactly the survivors. A round
// below quorum aborts with a *RoundError wrapping the first client failure.
func RunWithConfig(global []float64, clients []Client, cfg RunConfig) error {
	if cfg.Quorum < 0 || cfg.Quorum > len(clients) {
		return fmt.Errorf("fed: quorum %d out of [0,%d]", cfg.Quorum, len(clients))
	}
	quorum := cfg.Quorum
	if quorum == 0 {
		quorum = len(clients)
	}
	return engine{rounds: cfg.Rounds, width: cfg.Parallelism, codec: cfg.Codec, hook: cfg.Hook,
		dropRound: cfg.OnClientError == DropRound, quorum: quorum}.run(global, clients)
}
