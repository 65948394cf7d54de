// Package experiment reproduces the paper's evaluation (§IV): the Table II
// training scenarios, the local-vs-federated comparison of Fig. 3 and
// Fig. 4, the Profit+CollabPolicy comparison of Table III and Fig. 5, the
// reward-signal sweep of Fig. 2, and the runtime-overhead accounting of
// §IV-C.
//
// All experiments run on the simulated substrate (internal/sim,
// internal/workload) with deterministic seeding: the same Options produce
// bit-identical results.
package experiment

import (
	"fmt"
	"math/rand"
	"runtime"

	"fedpower/internal/core"
	"fedpower/internal/sim"
)

// Options configures an experiment run. DefaultOptions matches the paper's
// §III-C / Table I setup on the Jetson Nano platform model.
type Options struct {
	// Rounds is the number of federated rounds R (paper: 100).
	Rounds int
	// StepsPerRound is the environment steps per round T (paper: 100).
	StepsPerRound int
	// IntervalS is the DVFS control interval Δ_DVFS in seconds (paper: 0.5).
	IntervalS float64
	// EvalSteps caps the per-round evaluation episode length used for the
	// reward curves of Fig. 3/4 (the paper evaluates one application per
	// round; a cap keeps episodes comparable across applications).
	EvalSteps int
	// ExecEvalEvery controls how often (in rounds) the run-to-completion
	// evaluation behind Table III and Fig. 5 executes; those metrics are
	// averaged over these evaluation points.
	ExecEvalEvery int
	// MaxExecSteps bounds a run-to-completion evaluation episode as a
	// safety net against a policy stuck at the lowest frequency.
	MaxExecSteps int
	// Seed is the root seed; every stochastic component derives its own
	// stream from it.
	Seed int64
	// Core holds the controller hyper-parameters (Table I).
	Core core.Params
	// Table is the processor's V/f table; Power its power model.
	Table *sim.VFTable
	Power sim.PowerModel
	// Thermal, when true, attaches the lumped-RC temperature model with
	// leakage feedback to every simulated device — the second-order effect
	// the paper neglects (see the thermal ablation benchmark).
	Thermal bool
	// Parallelism bounds the experiment engine's worker pools: concurrent
	// clients inside a federated round, concurrent scenarios in the
	// Fig. 3/Fig. 5/Table III runners, concurrent sweep points and seed
	// replicates. 0 (the default) uses GOMAXPROCS; 1 forces fully
	// sequential execution. Results are bit-identical at every width —
	// each unit of work owns independent seeded RNG streams and writes
	// only its own result slot, and all floating-point aggregation
	// consumes slots in stable index order (TestParallelMatchesSequential
	// pins this).
	Parallelism int
}

// DefaultOptions returns the paper's configuration against the Jetson Nano
// platform model.
func DefaultOptions() Options {
	table := sim.JetsonNanoTable()
	return Options{
		Rounds:        100,
		StepsPerRound: 100,
		IntervalS:     0.5,
		EvalSteps:     40,
		ExecEvalEvery: 10,
		MaxExecSteps:  3000,
		Seed:          1,
		Core:          core.Defaults(table.Len()),
		Table:         table,
		Power:         sim.DefaultPowerModel(),
	}
}

// Validate reports the first inconsistency.
func (o Options) Validate() error {
	switch {
	case o.Rounds <= 0:
		return fmt.Errorf("experiment: rounds %d must be positive", o.Rounds)
	case o.StepsPerRound <= 0:
		return fmt.Errorf("experiment: steps per round %d must be positive", o.StepsPerRound)
	case o.IntervalS <= 0:
		return fmt.Errorf("experiment: control interval %v must be positive", o.IntervalS)
	case o.EvalSteps <= 0:
		return fmt.Errorf("experiment: eval steps %d must be positive", o.EvalSteps)
	case o.ExecEvalEvery <= 0:
		return fmt.Errorf("experiment: exec eval cadence %d must be positive", o.ExecEvalEvery)
	case o.MaxExecSteps <= 0:
		return fmt.Errorf("experiment: max exec steps %d must be positive", o.MaxExecSteps)
	case o.Parallelism < 0:
		return fmt.Errorf("experiment: parallelism %d must be non-negative", o.Parallelism)
	case o.Table == nil:
		return fmt.Errorf("experiment: nil V/f table")
	case o.Table.Len() != o.Core.Actions:
		return fmt.Errorf("experiment: V/f table has %d levels but controller expects %d actions", o.Table.Len(), o.Core.Actions)
	}
	return o.Core.Validate()
}

// workers resolves the Parallelism knob into a concrete pool width:
// GOMAXPROCS when unset, the explicit value otherwise.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// mix64 is the SplitMix64 finaliser: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// subseed derives a deterministic child seed from the root seed and a list
// of stream identifiers. The root is mixed before the first identifier is
// absorbed and every absorption passes through the full mix, so distinct
// identifier tuples cannot collide through simple integer relations (e.g.
// (1,1) vs (2,0)).
func subseed(root int64, ids ...int64) int64 {
	const golden = 0x9e3779b97f4a7c15
	z := mix64(uint64(root) + golden)
	for _, id := range ids {
		z = mix64(z + uint64(id) + golden)
	}
	return int64(z)
}

// newRNG returns a rand.Rand over a derived subseed.
func newRNG(root int64, ids ...int64) *rand.Rand {
	return rand.New(rand.NewSource(subseed(root, ids...)))
}

// DeviceRNG returns random stream k of device id under the root seed: the
// derivation every experiment device is keyed on (k = 1 drives the
// simulated plant, 2 the controller, 3 the workload stream). A process that
// runs one device of a deployed fleet keys its streams here too, so its
// devices differ by id as the experiments' do.
func DeviceRNG(seed, id, k int64) *rand.Rand { return newRNG(seed, id, k) }
