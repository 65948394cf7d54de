package baseline

import (
	"math/rand"

	"fedpower/internal/core"
	"fedpower/internal/replay"
)

// CentralTrainer implements the server-side learning architecture the paper
// contrasts itself against (Pan et al., ICCAD 2014 — reference [7]): every
// device uploads its raw (state, action, reward) interaction samples to a
// central server, which trains a single policy network on the merged stream
// and distributes it back.
//
// Learning-wise this architecture sees strictly more data than federated
// averaging (no model-averaging information loss). Its cost is privacy: the
// uploaded performance-counter and power traces are exactly the side
// channel the paper cites (device/user activity inference, power-analysis
// attacks). RawBytesReceived quantifies that exposure so the privacy
// experiment can report "reward parity at N bytes of leaked traces".
type CentralTrainer struct {
	ctrl *core.Controller

	rawBytes int64
}

// RawSampleBytes is the on-wire footprint of one uploaded interaction
// sample in the float32 representation used by the transports: five state
// features, one action index, one reward.
const RawSampleBytes = 4 * (core.StateDim + 1 + 1)

// NewCentralTrainer builds the server-side trainer with the same
// hyper-parameters as the on-device controllers.
func NewCentralTrainer(p core.Params, rng *rand.Rand) *CentralTrainer {
	return &CentralTrainer{ctrl: core.NewController(p, rng)}
}

// Ingest folds a device's uploaded samples into the server-side replay
// buffer, running the controller's usual every-H-samples update schedule,
// and accounts the raw bytes that crossed the device boundary.
func (t *CentralTrainer) Ingest(samples []replay.Sample) {
	for _, s := range samples {
		t.ctrl.Observe(s.State, s.Action, s.Reward)
	}
	t.rawBytes += int64(len(samples) * RawSampleBytes)
}

// Policy returns the current central model parameters (the live slice; copy
// to retain).
func (t *CentralTrainer) Policy() []float64 { return t.ctrl.ModelParams() }

// Controller exposes the underlying controller for diagnostics.
func (t *CentralTrainer) Controller() *core.Controller { return t.ctrl }

// RawBytesReceived returns the total bytes of raw trace data that left the
// devices — the privacy exposure of this architecture. The federated
// protocol's equivalent figure is zero.
func (t *CentralTrainer) RawBytesReceived() int64 { return t.rawBytes }
