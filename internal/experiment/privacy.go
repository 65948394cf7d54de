package experiment

// The privacy/communication experiment quantifies the paper's central
// claim — collaborative learning *without* raw traces leaving the devices —
// by training the same scenario under three architectures:
//
//   - local-only: no collaboration, nothing leaves any device;
//   - federated (ours): model parameters leave, raw traces do not;
//   - central (Pan et al. [7]): raw (state, action, reward) traces leave.
//
// For each architecture it reports the final policy quality and two
// communication figures: total bytes moved and, separately, bytes of *raw
// trace data* exposed — the privacy-relevant quantity.

import (
	"fmt"

	"fedpower/internal/baseline"
	"fedpower/internal/fed"
	"fedpower/internal/replay"
	"fedpower/internal/stats"
	"fedpower/internal/workload"
)

// ArchEval summarises one training architecture in the privacy comparison.
type ArchEval struct {
	Name string
	// AvgReward is the mean greedy evaluation reward over all twelve
	// applications using the final policy.
	AvgReward float64
	// TotalBytes is all training communication that crossed device
	// boundaries in either direction.
	TotalBytes int64
	// RawTraceBytes is the subset of TotalBytes that consists of raw
	// performance-counter/power samples — the privacy exposure.
	RawTraceBytes int64
}

// PrivacyResult holds the three architectures' outcomes.
type PrivacyResult struct {
	Local     ArchEval
	Federated ArchEval
	Central   ArchEval
}

// RunPrivacy trains the split-half scenario under all three architectures
// with identical budgets and evaluates the final policies on all twelve
// applications.
func RunPrivacy(o Options) (*PrivacyResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	sc := SplitHalf()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	deviceSpecs := make([][]workload.Spec, len(sc.Devices))
	for i, names := range sc.Devices {
		specs, err := workload.ByNames(names...)
		if err != nil {
			return nil, err
		}
		deviceSpecs[i] = specs
	}

	evalModel := func(model []float64, id int64) float64 {
		var agg stats.Running
		for appIdx, spec := range EvalApps() {
			res := evaluate(o, NewNeuralPolicy(o.Core, model), spec, false, 9000, id, int64(appIdx))
			agg.Add(res.AvgReward)
		}
		return agg.Mean()
	}

	out := &PrivacyResult{}

	// --- Local-only: independent devices, zero communication. -----------
	// Evaluate the average reward across the devices' final local models.
	var localAgg stats.Running
	for i, specs := range deviceSpecs {
		dev := NewNeuralDevice(o, int64(idLocalDevice+i+1000), specs)
		local := append([]float64(nil), dev.Ctrl.ModelParams()...)
		if err := fed.Run(local, []fed.Client{dev}, o.Rounds, nil); err != nil {
			return nil, fmt.Errorf("experiment: privacy local training device %d: %w", i, err)
		}
		localAgg.Add(evalModel(local, int64(9100+i)))
	}
	out.Local = ArchEval{Name: "local-only", AvgReward: localAgg.Mean()}

	// --- Federated (ours): model parameters only. ------------------------
	fedClients, global, err := newFederation(o, sc, idFedDevice+1000, 1000)
	if err != nil {
		return nil, err
	}
	if err := fed.RunParallel(global, fedClients, o.Rounds, o.workers(), nil); err != nil {
		return nil, fmt.Errorf("experiment: privacy federated training: %w", err)
	}
	// Per round and device: one model down, one model up.
	transfers := int64(o.Rounds) * int64(len(fedClients)) * 2
	out.Federated = ArchEval{
		Name:       "federated (ours)",
		AvgReward:  evalModel(global, 9200),
		TotalBytes: transfers * int64(fed.TransferSize(len(global))),
	}

	// --- Central (server-side learning, [7]): raw samples up, model down.
	trainer := baseline.NewCentralTrainer(o.Core, newRNG(o.Seed, 9300))
	centralClients := make([]*centralDevice, len(deviceSpecs))
	for i, specs := range deviceSpecs {
		centralClients[i] = newCentralDevice(o, int64(9400+i), specs)
	}
	for round := 1; round <= o.Rounds; round++ {
		snapshot := append([]float64(nil), trainer.Policy()...)
		for _, d := range centralClients {
			trainer.Ingest(d.CollectRound(snapshot))
		}
	}
	modelDown := int64(o.Rounds) * int64(len(centralClients)) * int64(fed.TransferSize(trainer.Controller().NumParams()))
	out.Central = ArchEval{
		Name:          "central (raw traces)",
		AvgReward:     evalModel(trainer.Policy(), 9500),
		TotalBytes:    trainer.RawBytesReceived() + modelDown,
		RawTraceBytes: trainer.RawBytesReceived(),
	}
	return out, nil
}

// centralDevice is the device side of the server-side architecture: it acts
// with the downloaded central policy (with local softmax exploration) and
// collects its raw interaction samples for upload instead of training
// locally.
type centralDevice struct {
	dev     *NeuralDevice
	samples []replay.Sample
}

func newCentralDevice(o Options, id int64, apps []workload.Spec) *centralDevice {
	return &centralDevice{dev: NewNeuralDevice(o, id, apps)}
}

// CollectRound runs T control steps under the given central policy snapshot
// and returns the round's raw samples. The device's own controller is used
// only for action selection (exploration temperature included); its buffer
// and updates are bypassed — all learning happens on the server.
func (d *centralDevice) CollectRound(policy []float64) []replay.Sample {
	nd := d.dev
	nd.Ctrl.SetModelParams(policy)
	if !nd.started {
		nd.bootstrap()
	}
	d.samples = d.samples[:0]
	for t := 0; t < nd.steps; t++ {
		action, r := nd.step()
		// Exploration decays on-device even though learning is central.
		nd.Ctrl.AdvanceSchedule()
		d.samples = append(d.samples, replay.Sample{
			State:  append([]float64(nil), nd.state...),
			Action: action,
			Reward: r,
		})
	}
	return d.samples
}
