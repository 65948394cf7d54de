// Package fedpower is a from-scratch Go implementation of federated power
// control for edge devices, reproducing "Federated Reinforcement Learning
// for Optimizing the Power Efficiency of Edge Devices" (Dietrich,
// Müller-Both, Khdr, Henkel — DATE 2025).
//
// The system trains a neural DVFS policy collaboratively across multiple
// edge devices: each device runs a local reinforcement-learning power
// controller (a contextual bandit with softmax exploration over a reward
// that trades application performance against a soft power constraint), and
// a central server merges the local policies with federated averaging after
// every round. Only model parameters cross device boundaries; raw
// performance-counter and power traces never leave a device.
//
// This package is the public API surface. It re-exports, via type aliases,
// the building blocks implemented in the internal packages:
//
//   - the local power controller (Controller, ControllerParams, Reward),
//   - the simulated edge-device substrate (Device, VFTable, PowerModel)
//     standing in for the paper's Jetson Nano boards,
//   - the SPLASH-2-style workload models (AppSpec, App, Stream),
//   - federated training (FederatedRun, Server, Dial) over an in-process
//     orchestrator or TCP,
//   - the Profit+CollabPolicy baseline, and
//   - one-call experiment runners for every table and figure of the paper
//     (Fig2, Fig3, Fig4, Table3, Fig5, Overhead).
//
// # Quick start
//
//	opts := fedpower.DefaultOptions()
//	opts.Rounds = 30
//	res, err := fedpower.RunFig3(opts)   // local vs federated comparison
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// full system inventory and the paper-to-code experiment index.
package fedpower

import (
	"io"
	"math/rand"

	"fedpower/internal/baseline"
	"fedpower/internal/core"
	"fedpower/internal/experiment"
	"fedpower/internal/fed"
	"fedpower/internal/governor"
	"fedpower/internal/nn"
	"fedpower/internal/replay"
	"fedpower/internal/sim"
	"fedpower/internal/trace"
	"fedpower/internal/workload"
)

// ---------------------------------------------------------------------------
// Local power controller (§III-A, Algorithm 1)

// Controller is the neural power controller: a contextual-bandit RL agent
// whose policy network regresses the expected reward of every V/f level.
type Controller = core.Controller

// ControllerParams collects the controller hyper-parameters (Table I).
type ControllerParams = core.Params

// RewardParams configures the reward signal of Eq. (4): the power
// constraint P_crit and softness band k_offset.
type RewardParams = core.RewardParams

// StateDim is the dimensionality of the agent state (f, P, ipc, mr, mpki).
const StateDim = core.StateDim

// DefaultControllerParams returns the paper's Table I hyper-parameters for
// a processor with the given number of V/f levels.
func DefaultControllerParams(actions int) ControllerParams {
	return core.Defaults(actions)
}

// NewController builds a power controller; rng drives weight initialisation
// and exploration.
func NewController(p ControllerParams, rng *rand.Rand) *Controller {
	return core.NewController(p, rng)
}

// StateVector converts a device observation into the normalised agent
// state. Pass nil for dst to allocate.
func StateVector(obs Observation, dst []float64) []float64 {
	return core.StateVector(obs, dst)
}

// ---------------------------------------------------------------------------
// Simulated edge-device substrate (stands in for the Jetson Nano boards)

// Device is a DVFS-capable simulated processor executing a workload.
type Device = sim.Device

// Observation is one control interval's counter and sensor readings.
type Observation = sim.Observation

// VFTable is an ordered set of voltage/frequency operating points.
type VFTable = sim.VFTable

// VFLevel is one operating point.
type VFLevel = sim.VFLevel

// PowerModel holds the analytic power-model calibration.
type PowerModel = sim.PowerModel

// Demand describes a workload phase's micro-architectural characteristics.
type Demand = sim.Demand

// Workload is the device-side contract an application implements.
type Workload = sim.Workload

// JetsonNanoTable returns the evaluation platform's 15 V/f levels
// (102–1479 MHz).
func JetsonNanoTable() *VFTable { return sim.JetsonNanoTable() }

// NewVFTable builds a custom V/f table.
func NewVFTable(levels []VFLevel) (*VFTable, error) { return sim.NewVFTable(levels) }

// DefaultPowerModel returns the calibrated Jetson-Nano-class power model.
func DefaultPowerModel() PowerModel { return sim.DefaultPowerModel() }

// ThermalModel is the optional lumped-RC die-temperature model with
// leakage feedback (the effect the paper neglects). Attach one to a
// Device's Thermal field to enable it.
type ThermalModel = sim.ThermalModel

// DefaultThermalModel returns a Jetson-Nano-class passive-heatsink thermal
// calibration.
func DefaultThermalModel() *ThermalModel { return sim.DefaultThermalModel() }

// NewDevice builds a simulated device; rng drives measurement noise.
func NewDevice(table *VFTable, pm PowerModel, rng *rand.Rand) *Device {
	return sim.NewDevice(table, pm, rng)
}

// ---------------------------------------------------------------------------
// Workloads

// AppSpec statically describes an application.
type AppSpec = workload.Spec

// AppPhase is one execution phase of an application.
type AppPhase = workload.Phase

// App is a running application instance.
type App = workload.App

// Stream feeds a device an endless shuffled rotation of applications.
type Stream = workload.Stream

// SPLASH2 returns the twelve evaluation applications of §IV.
func SPLASH2() []AppSpec { return workload.SPLASH2() }

// AppByName resolves one SPLASH-2 application spec by name.
func AppByName(name string) (AppSpec, error) { return workload.ByName(name) }

// NewApp instantiates an application spec.
func NewApp(spec AppSpec) *App { return workload.NewApp(spec) }

// NewStream builds a shuffled application rotation.
func NewStream(rng *rand.Rand, specs []AppSpec) *Stream { return workload.NewStream(rng, specs) }

// TraceApp is an application defined by an explicit demand trace — the
// substitution path for profiled production workloads.
type TraceApp = workload.TraceApp

// TraceSegment is one fixed-characteristics piece of a demand trace.
type TraceSegment = workload.Segment

// NewTraceApp builds a trace-driven application from explicit segments.
func NewTraceApp(name string, segments []TraceSegment) (*TraceApp, error) {
	return workload.NewTraceApp(name, segments)
}

// LoadWorkloadTraceCSV reads a demand trace in CSV form (columns: instr,
// base_cpi, mpki, apki, mem_latency_ns, activity).
func LoadWorkloadTraceCSV(name string, r io.Reader) (*TraceApp, error) {
	return workload.LoadTraceCSV(name, r)
}

// WriteWorkloadTraceCSV serialises a trace-driven application's segments.
func WriteWorkloadTraceCSV(w io.Writer, app *TraceApp) error {
	return workload.WriteTraceCSV(w, app)
}

// ---------------------------------------------------------------------------
// Federated learning (§III-B, Algorithm 2)

// FederatedClient is one federated participant.
type FederatedClient = fed.Client

// FederatedClientFunc adapts a function to FederatedClient.
type FederatedClientFunc = fed.ClientFunc

// RoundHook runs after every aggregation round.
type RoundHook = fed.RoundHook

// Server is the TCP aggregation server.
type Server = fed.Server

// Conn is a TCP client connection to the aggregation server.
type Conn = fed.Conn

// FederatedRun executes R rounds of in-process federated averaging.
func FederatedRun(global []float64, clients []FederatedClient, rounds int, hook RoundHook) error {
	return fed.Run(global, clients, rounds, hook)
}

// FederatedRunSampled is FederatedRun with partial client participation
// per round (the original FedAvg's client-sampling parameter C); the
// paper's protocol is the fraction = 1 special case.
func FederatedRunSampled(global []float64, clients []FederatedClient, fraction float64, rounds int, rng *rand.Rand, hook RoundHook) error {
	return fed.RunSampled(global, clients, fraction, rounds, rng, hook)
}

// TreeNode describes one node of a hierarchical aggregation topology: its
// directly attached leaf devices and its child aggregators.
type TreeNode = fed.TreeNode

// TreeConfig configures FederatedRunTree.
type TreeConfig = fed.TreeConfig

// Uniform builds a balanced topology from per-level fan-outs: Uniform(4, 8)
// is four edge aggregators of eight devices each.
func Uniform(fanouts ...int) *TreeNode { return fed.Uniform(fanouts...) }

// ParseTopology parses an "AxBxC" fan-out spec (the -topology CLI grammar)
// into a balanced tree.
func ParseTopology(s string) (*TreeNode, error) { return fed.ParseTopology(s) }

// FederatedRunTree executes an in-process hierarchical federation over the
// topology's leaf slots. Every aggregation hop is an exact fixed-point sum,
// so any topology over the same clients — including the flat one — yields
// bit-identical parameters every round.
func FederatedRunTree(global []float64, clients []FederatedClient, topo *TreeNode, cfg TreeConfig) error {
	return fed.RunTree(global, clients, topo, cfg)
}

// Aggregator is an interior tree node over TCP: a server to its children
// and a resilient client to its parent, relaying exact sub-sums upward.
type Aggregator = fed.Aggregator

// NewAggregator listens on addr for the given number of children; wire it
// to its parent via the Aggregator fields and call Run.
func NewAggregator(addr string, children int) (*Aggregator, error) {
	return fed.NewAggregator(addr, children)
}

// NewServer starts a TCP aggregation server for a fixed client count and
// round budget.
func NewServer(addr string, numClients, rounds int) (*Server, error) {
	return fed.NewServer(addr, numClients, rounds)
}

// Dial connects a device to the TCP aggregation server.
func Dial(addr string) (*Conn, error) { return fed.Dial(addr) }

// DialID is Dial with an explicit client ID, giving the device a stable
// aggregation slot across reconnects.
func DialID(addr string, id uint32) (*Conn, error) { return fed.DialID(addr, id) }

// RoundError is the structured federation failure: round, phase and client.
type RoundError = fed.RoundError

// Phase identifies where in a federated round an error occurred.
type Phase = fed.Phase

// Backoff is the capped-exponential retry policy used for reconnects.
type Backoff = fed.Backoff

// Participant is the resilient device-side protocol driver: it reconnects
// under Backoff after transport failures and rejoins the federation.
type Participant = fed.Participant

// ClientErrorPolicy selects FederatedRunWithConfig's failure handling.
type ClientErrorPolicy = fed.ClientErrorPolicy

// Client-error policies: abort on the first failure, or drop the failing
// client for the round and continue under quorum.
const (
	FailFast  = fed.FailFast
	DropRound = fed.DropRound
)

// RunConfig configures FederatedRunWithConfig.
type RunConfig = fed.RunConfig

// FederatedRunWithConfig is FederatedRun with the TCP transport's
// quorum/dropout semantics: failing clients can sit a round out and rounds
// commit once Quorum updates survive.
func FederatedRunWithConfig(global []float64, clients []FederatedClient, cfg RunConfig) error {
	return fed.RunWithConfig(global, clients, cfg)
}

// DialRetry dials the aggregation server under the backoff policy.
func DialRetry(addr string, id uint32, b Backoff) (*Conn, error) {
	return fed.DialRetry(addr, id, b)
}

// Codec selects the parameter encoding of the federated wire: dense float32
// (the paper's format and the default), bit-exact delta, or lossy
// int8/int16 quantized delta. The zero value behaves as dense on the wire.
type Codec = fed.Codec

// DenseCodec returns the dense float32 codec — the paper's 2.8 kB/transfer
// wire format.
func DenseCodec() Codec { return fed.DenseCodec() }

// DeltaCodec returns the bit-exact shadow-delta codec: same bytes per
// parameter as dense, identical training results, highly compressible
// payloads.
func DeltaCodec() Codec { return fed.DeltaCodec() }

// QuantCodec returns the stochastic quantized-delta codec (8 or 16 bits per
// parameter), cutting model-bearing wire bytes 4× or 2× versus dense at the
// cost of bounded, error-fed-back quantization noise.
func QuantCodec(bits int, seed int64) (Codec, error) { return fed.QuantCodec(bits, seed) }

// ParseCodec resolves a -codec flag value: "dense", "delta", "quant8" or
// "quant16".
func ParseCodec(name string) (Codec, error) { return fed.ParseCodec(name) }

// DialCodec is DialID with an explicit wire codec, which must match the
// server's.
func DialCodec(addr string, id uint32, codec Codec) (*Conn, error) {
	return fed.DialCodec(addr, id, codec)
}

// FederatedRunCodec is FederatedRun with every exchange passed through the
// parameter codec at the given parallel width, emulating the TCP wire in
// process; dense and delta runs are bit-identical to their TCP
// counterparts.
func FederatedRunCodec(global []float64, clients []FederatedClient, rounds, width int, codec Codec, hook RoundHook) error {
	return fed.RunParallelCodec(global, clients, rounds, width, codec, hook)
}

// TransferSize returns the on-wire bytes of one model transfer for a
// network with n parameters (2748 payload bytes + 9 framing bytes for the
// paper's 687-parameter network).
func TransferSize(n int) int { return fed.TransferSize(n) }

// EncodeModel serialises model parameters as little-endian float32 — the
// wire and at-rest format (2748 B for the paper's 687-parameter network).
func EncodeModel(params []float64) []byte { return nn.EncodeParams(params) }

// DecodeModel deserialises a buffer produced by EncodeModel into dst, whose
// length determines the expected parameter count.
func DecodeModel(dst []float64, buf []byte) error { return nn.DecodeParams(dst, buf) }

// ---------------------------------------------------------------------------
// Baseline (Profit + CollabPolicy, §IV-B)

// Profit is the table-based RL power controller baseline.
type Profit = baseline.Profit

// ProfitParams configures Profit.
type ProfitParams = baseline.ProfitParams

// Collab wraps Profit with CollabPolicy multi-device knowledge sharing.
type Collab = baseline.Collab

// CollabSummary is a device's per-state policy upload.
type CollabSummary = baseline.LocalSummary

// DefaultProfitParams returns the baseline configuration of §IV-B.
func DefaultProfitParams(actions int) ProfitParams { return baseline.DefaultProfitParams(actions) }

// NewProfit builds a Profit agent.
func NewProfit(p ProfitParams, rng *rand.Rand) *Profit { return baseline.NewProfit(p, rng) }

// NewCollab wraps a Profit agent with CollabPolicy.
func NewCollab(local *Profit) *Collab { return baseline.NewCollab(local) }

// CollabAggregate merges device summaries into the next global policy.
func CollabAggregate(summaries []CollabSummary) map[baseline.StateKey]baseline.GlobalEntry {
	return baseline.Aggregate(summaries)
}

// ---------------------------------------------------------------------------
// Replay

// ReplayBuffer is the per-device experience buffer of Algorithm 1.
type ReplayBuffer = replay.Buffer

// NewReplayBuffer builds a buffer with the given capacity.
func NewReplayBuffer(capacity int) *ReplayBuffer { return replay.New(capacity) }

// ---------------------------------------------------------------------------
// Experiments (§IV) — one runner per table/figure

// Options configures an experiment run.
type Options = experiment.Options

// Scenario assigns training applications to devices (Table II).
type Scenario = experiment.Scenario

// ScenarioResult holds one scenario's local/federated evaluation traces.
type ScenarioResult = experiment.ScenarioResult

// Fig2Result is the reward-signal sweep behind Fig. 2.
type Fig2Result = experiment.Fig2Result

// Fig3Result is the local-vs-federated comparison behind Fig. 3.
type Fig3Result = experiment.Fig3Result

// Fig4Result is the frequency-selection trace behind Fig. 4.
type Fig4Result = experiment.Fig4Result

// Table3Result is the state-of-the-art comparison behind Table III.
type Table3Result = experiment.Table3Result

// Fig5Result is the per-application split-half comparison behind Fig. 5.
type Fig5Result = experiment.Fig5Result

// OverheadResult is the runtime-overhead accounting of §IV-C.
type OverheadResult = experiment.OverheadResult

// EvalResult summarises one greedy evaluation episode.
type EvalResult = experiment.EvalResult

// DefaultOptions returns the paper's evaluation configuration.
func DefaultOptions() Options { return experiment.DefaultOptions() }

// TableII returns the paper's three disjunct training scenarios.
func TableII() []Scenario { return experiment.TableII() }

// SplitHalfScenario returns the six-apps-per-device scenario of Fig. 5.
func SplitHalfScenario() Scenario { return experiment.SplitHalf() }

// RunFig2 sweeps the reward function over the V/f levels.
func RunFig2(table *VFTable, rp RewardParams, points int) *Fig2Result {
	return experiment.RunFig2(table, rp, points)
}

// RunFig2Powers sweeps the reward function over an explicit power axis.
func RunFig2Powers(table *VFTable, rp RewardParams, powers []float64) *Fig2Result {
	return experiment.RunFig2Powers(table, rp, powers)
}

// RunScenario trains and evaluates one scenario in both regimes.
func RunScenario(o Options, scIndex int, sc Scenario) (*ScenarioResult, error) {
	return experiment.RunScenario(o, scIndex, sc)
}

// RunFig3 runs all Table II scenarios (local vs federated).
func RunFig3(o Options) (*Fig3Result, error) { return experiment.RunFig3(o) }

// Fig4FromScenario projects a scenario result onto the Fig. 4 series.
func Fig4FromScenario(res *ScenarioResult) (*Fig4Result, error) {
	return experiment.Fig4FromScenario(res)
}

// RoundEval is one per-round evaluation data point of a training trace.
type RoundEval = experiment.RoundEval

// RoundsToReach returns the first round whose trailing full-window mean
// reward reaches the threshold, or -1 — the convergence-speed metric.
func RoundsToReach(evals []RoundEval, threshold float64, window int) int {
	return experiment.RoundsToReach(evals, threshold, window)
}

// RoundsToSustain returns the first round from which the window-mean
// reward stays at or above the threshold for the rest of the trace, or -1.
func RoundsToSustain(evals []RoundEval, threshold float64, window int) int {
	return experiment.RoundsToSustain(evals, threshold, window)
}

// RunTable3 runs the Profit+CollabPolicy comparison over all scenarios.
func RunTable3(o Options) (*Table3Result, error) { return experiment.RunTable3(o) }

// RunFig5 runs the split-half per-application comparison.
func RunFig5(o Options) (*Fig5Result, error) { return experiment.RunFig5(o) }

// NeuralDevice is a simulated edge device running the paper's neural
// controller: the FederatedClient the experiments train and `fedpower
// device` deploys.
type NeuralDevice = experiment.NeuralDevice

// NewNeuralDevice builds a NeuralDevice that trains on apps, its random
// streams keyed on (o.Seed, id).
func NewNeuralDevice(o Options, id int64, apps []AppSpec) *NeuralDevice {
	return experiment.NewNeuralDevice(o, id, apps)
}

// RunOverhead measures controller runtime costs on this host.
func RunOverhead(o Options, decisions int) *OverheadResult {
	return experiment.RunOverhead(o, decisions)
}

// ResilienceOptions configures the fault-injected TCP federation scenario.
type ResilienceOptions = experiment.ResilienceOptions

// ResilienceResult reports how far a federation got under faults.
type ResilienceResult = experiment.ResilienceResult

// DefaultResilienceOptions returns a small fault-free resilience scenario.
func DefaultResilienceOptions() ResilienceOptions { return experiment.DefaultResilienceOptions() }

// RunResilience trains a federation over localhost TCP with seeded fault
// injection and reports rounds completed, traffic and final accuracy.
func RunResilience(o ResilienceOptions) (*ResilienceResult, error) {
	return experiment.RunResilience(o)
}

// TreeScaleOptions configures the fleet-scale hierarchical TCP scenario.
type TreeScaleOptions = experiment.TreeScaleOptions

// TreeScaleResult is one topology's capacity measurement.
type TreeScaleResult = experiment.TreeScaleResult

// DefaultTreeScaleOptions returns the 500-device, 3-level fleet scenario.
func DefaultTreeScaleOptions() TreeScaleOptions { return experiment.DefaultTreeScaleOptions() }

// RunTreeScale deploys an aggregation tree over localhost TCP and measures
// round throughput, per-hop traffic and bit-identity to the flat protocol.
func RunTreeScale(o TreeScaleOptions) (*TreeScaleResult, error) {
	return experiment.RunTreeScale(o)
}

// ---------------------------------------------------------------------------
// Classical governors and extension experiments

// Governor is a classical, non-learning DVFS policy (OS governor or
// reactive power capper).
type Governor = governor.Governor

// NewPerformanceGovernor pins the highest V/f level (Linux "performance").
func NewPerformanceGovernor(levels int) Governor { return governor.NewPerformance(levels) }

// NewPowersaveGovernor pins the lowest V/f level (Linux "powersave").
func NewPowersaveGovernor() Governor { return governor.NewPowersave() }

// NewUserspaceGovernor pins a fixed level (Linux "userspace").
func NewUserspaceGovernor(level int) Governor { return governor.NewUserspace(level) }

// NewPowerCapGovernor reacts to budget violations by stepping the
// frequency, with hysteresis.
func NewPowerCapGovernor(levels int, budgetW, headroomW float64) Governor {
	return governor.NewPowerCap(levels, budgetW, headroomW)
}

// StandardGovernors returns the classical comparator set.
func StandardGovernors(levels int, budgetW float64) []Governor {
	return governor.Standard(levels, budgetW)
}

// GovernorsResult compares the learned policy against the classical
// governors.
type GovernorsResult = experiment.GovernorsResult

// HeteroResult is the heterogeneous-budget extension outcome.
type HeteroResult = experiment.HeteroResult

// BudgetEval summarises one policy under one power budget.
type BudgetEval = experiment.BudgetEval

// RunGovernors trains the federated policy and evaluates it against the
// classical governor set on every application.
func RunGovernors(o Options) (*GovernorsResult, error) { return experiment.RunGovernors(o) }

// RunHeterogeneous probes the paper's future-work direction: devices train
// under different power budgets and the shared policy is evaluated under
// each.
func RunHeterogeneous(o Options, budgets []float64) (*HeteroResult, error) {
	return experiment.RunHeterogeneous(o, budgets)
}

// PrivacyResult compares local-only, federated and server-side (raw-trace)
// training architectures on reward and communication/privacy cost.
type PrivacyResult = experiment.PrivacyResult

// ArchEval is one architecture's outcome in the privacy comparison.
type ArchEval = experiment.ArchEval

// CentralTrainer is the server-side learning architecture of the paper's
// reference [7]: devices upload raw interaction samples, one central model
// is trained on the merged stream.
type CentralTrainer = baseline.CentralTrainer

// NewCentralTrainer builds a server-side trainer with controller
// hyper-parameters p.
func NewCentralTrainer(p ControllerParams, rng *rand.Rand) *CentralTrainer {
	return baseline.NewCentralTrainer(p, rng)
}

// RunPrivacy trains the split-half scenario under all three architectures
// and reports reward vs bytes of raw trace data exposed.
func RunPrivacy(o Options) (*PrivacyResult, error) { return experiment.RunPrivacy(o) }

// MultiCoreDevice simulates a CPU cluster with a shared clock, one workload
// per core.
type MultiCoreDevice = sim.MultiCoreDevice

// NewMultiCoreDevice builds a cluster with the given core count.
func NewMultiCoreDevice(table *VFTable, pm PowerModel, cores int, rng *rand.Rand) *MultiCoreDevice {
	return sim.NewMultiCoreDevice(table, pm, cores, rng)
}

// MultiCoreResult is the multi-core extension's outcome.
type MultiCoreResult = experiment.MultiCoreResult

// RunMultiCore trains and evaluates on two 4-core clusters with concurrent
// per-core workloads under a cluster-level budget.
func RunMultiCore(o Options) (*MultiCoreResult, error) { return experiment.RunMultiCore(o) }

// Replication holds per-seed outcomes of repeated Fig. 3 comparisons.
type Replication = experiment.Replication

// RunReplication repeats the local-vs-federated comparison across seeds.
func RunReplication(o Options, seeds []int64) (*Replication, error) {
	return experiment.RunReplication(o, seeds)
}

// DefaultReplicationSeeds returns n distinct seeds derived from base.
func DefaultReplicationSeeds(base int64, n int) []int64 {
	return experiment.DefaultReplicationSeeds(base, n)
}

// SweepPoint is one configuration in a hyper-parameter sensitivity sweep.
type SweepPoint = experiment.SweepPoint

// SweepResult pairs sweep labels with federated evaluation rewards.
type SweepResult = experiment.SweepResult

// RunSweep trains scenario 2 under each sweep point and evaluates.
func RunSweep(o Options, dimension string, points []SweepPoint) (*SweepResult, error) {
	return experiment.RunSweep(o, dimension, points)
}

// LearningRateSweep, TauDecaySweep, BatchSizeSweep and HiddenWidthSweep
// build canonical sweeps around the paper's Table I values.
func LearningRateSweep(rates ...float64) []SweepPoint { return experiment.LearningRateSweep(rates...) }

// TauDecaySweep sweeps the temperature decay.
func TauDecaySweep(decays ...float64) []SweepPoint { return experiment.TauDecaySweep(decays...) }

// BatchSizeSweep sweeps the mini-batch size.
func BatchSizeSweep(sizes ...int) []SweepPoint { return experiment.BatchSizeSweep(sizes...) }

// HiddenWidthSweep sweeps the hidden-layer width.
func HiddenWidthSweep(widths ...int) []SweepPoint { return experiment.HiddenWidthSweep(widths...) }

// ---------------------------------------------------------------------------
// Execution traces

// TraceEntry is one recorded control interval.
type TraceEntry = trace.Entry

// TraceRecorder receives trace entries.
type TraceRecorder = trace.Recorder

// NewCSVTraceRecorder records a trace as CSV.
func NewCSVTraceRecorder(w io.Writer) TraceRecorder { return trace.NewCSVRecorder(w) }

// NewJSONLTraceRecorder records a trace as JSON Lines.
func NewJSONLTraceRecorder(w io.Writer) TraceRecorder { return trace.NewJSONLRecorder(w) }

// ReadCSVTrace parses a CSV trace.
func ReadCSVTrace(r io.Reader) ([]TraceEntry, error) { return trace.ReadCSV(r) }

// ReadJSONLTrace parses a JSON Lines trace.
func ReadJSONLTrace(r io.Reader) ([]TraceEntry, error) { return trace.ReadJSONL(r) }

// RecordEpisode trains the federated policy, then records one greedy
// run-to-completion episode of the named application.
func RecordEpisode(o Options, appName string, rec TraceRecorder) (int, error) {
	return experiment.RecordEpisode(o, appName, rec)
}

// ---------------------------------------------------------------------------
// CSV export

// WriteFig2CSV dumps the Fig. 2 reward grid as CSV.
func WriteFig2CSV(w io.Writer, res *Fig2Result) error { return experiment.WriteFig2CSV(w, res) }

// WriteFig3CSV dumps the Fig. 3 reward traces as CSV.
func WriteFig3CSV(w io.Writer, res *Fig3Result) error { return experiment.WriteFig3CSV(w, res) }

// WriteFig4CSV dumps the Fig. 4 frequency traces as CSV.
func WriteFig4CSV(w io.Writer, res *Fig4Result) error { return experiment.WriteFig4CSV(w, res) }

// WriteTable3CSV dumps the Table III comparison as CSV.
func WriteTable3CSV(w io.Writer, res *Table3Result) error { return experiment.WriteTable3CSV(w, res) }

// WriteFig5CSV dumps the Fig. 5 per-application comparison as CSV.
func WriteFig5CSV(w io.Writer, res *Fig5Result) error { return experiment.WriteFig5CSV(w, res) }

// WriteGovernorsCSV dumps the governor comparison as CSV.
func WriteGovernorsCSV(w io.Writer, res *GovernorsResult) error {
	return experiment.WriteGovernorsCSV(w, res)
}

// WriteHeteroCSV dumps the heterogeneous-budget results as CSV.
func WriteHeteroCSV(w io.Writer, res *HeteroResult) error { return experiment.WriteHeteroCSV(w, res) }

// WritePrivacyCSV dumps the privacy/communication comparison as CSV.
func WritePrivacyCSV(w io.Writer, res *PrivacyResult) error {
	return experiment.WritePrivacyCSV(w, res)
}

// WriteMultiCoreCSV dumps the multi-core extension traces as CSV.
func WriteMultiCoreCSV(w io.Writer, res *MultiCoreResult) error {
	return experiment.WriteMultiCoreCSV(w, res)
}
