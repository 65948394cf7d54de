package main

// metricDef names one metric of the benchmark. The two tables below are the
// single source of truth: BENCHMARK.json repeats them (a test compares the
// two) and README.md explains them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics every workload reports from its untraced run.
// Each is defined for, and never zero on, every workload; what an "op" is
// differs per workload (a control step, a Fig. 3 run, a committed round).
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of the traced run. Every workload prints all of
// them; a layer the workload never enters reads 0.
var perLayer = []metricDef{
	// Device step path.
	{Name: "sim.step_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.steps", Unit: "count", Better: "higher"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.apps_completed", Unit: "count", Better: "higher"},
	{Name: "experiment.policy_action_ns", Unit: "ns", Better: "lower"},
	{Name: "core.featurize_ns", Unit: "ns", Better: "lower"},
	{Name: "core.greedy_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "core.select_ns", Unit: "ns", Better: "lower"},
	{Name: "core.reward_ns", Unit: "ns", Better: "lower"},
	{Name: "core.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "replay.add_ns", Unit: "ns", Better: "lower"},
	// Policy update.
	{Name: "core.update_us", Unit: "us", Better: "lower"},
	{Name: "core.updates", Unit: "count", Better: "higher"},
	{Name: "core.update_share", Unit: "ratio", Better: "lower"},
	{Name: "core.update_step_p50_us", Unit: "us", Better: "lower"},
	{Name: "replay.sample_into_us", Unit: "us", Better: "lower"},
	{Name: "nn.forward_batch_us", Unit: "us", Better: "lower"},
	{Name: "nn.backward_batch_us", Unit: "us", Better: "lower"},
	{Name: "nn.adam_step_us", Unit: "us", Better: "lower"},
	// Tails (diagnostics).
	{Name: "core.step_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.step_p999_us", Unit: "us", Better: "lower"},
	{Name: "fed.round_p99_us", Unit: "us", Better: "lower"},
	{Name: "fed.round_p999_us", Unit: "us", Better: "lower"},
	// Fleet round.
	{Name: "fed.fanout_us", Unit: "us", Better: "lower"},
	{Name: "fed.collect_commit_us", Unit: "us", Better: "lower"},
	{Name: "fed.round_fixed_us", Unit: "us", Better: "lower"},
	{Name: "fed.round_per_device_us", Unit: "us", Better: "lower"},
	{Name: "fed.root_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "fed.bytes_per_device_round", Unit: "B", Better: "lower"},
	{Name: "fed.device_contribs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fed.drops", Unit: "count", Better: "lower"},
	{Name: "fed.rejoins", Unit: "count", Better: "lower"},
	{Name: "nn.accum_reset_us", Unit: "us", Better: "lower"},
	{Name: "nn.accum_add_params_us", Unit: "us", Better: "lower"},
	{Name: "nn.accum_mean_us", Unit: "us", Better: "lower"},
	{Name: "nn.encode_params_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.decode_params_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.average_params_us", Unit: "us", Better: "lower"},
	{Name: "nn.accum_merge_us", Unit: "us", Better: "lower"},
	{Name: "nn.accum_wire_us", Unit: "us", Better: "lower"},
	{Name: "fed.uplink_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "fed.tree_inproc_round_us", Unit: "us", Better: "lower"},
	{Name: "fed.inproc_round_us", Unit: "us", Better: "lower"},
	{Name: "fed.socket_share", Unit: "ratio", Better: "lower"},
	{Name: "fed.codec_delta_round_us", Unit: "us", Better: "lower"},
	{Name: "fed.codec_quant8_round_us", Unit: "us", Better: "lower"},
	// Worker pools.
	{Name: "par.foreach_ns", Unit: "ns", Better: "lower"},
	{Name: "par.pool_run_ns", Unit: "ns", Better: "lower"},
	{Name: "par.fig3_speedup", Unit: "ratio", Better: "higher"},
	// Experiment engine.
	{Name: "experiment.scenario1_s", Unit: "s", Better: "lower"},
	{Name: "experiment.scenario2_s", Unit: "s", Better: "lower"},
	{Name: "experiment.scenario3_s", Unit: "s", Better: "lower"},
	{Name: "experiment.train_steps", Unit: "count", Better: "higher"},
	{Name: "experiment.alloc_mb_per_run", Unit: "MB", Better: "lower"},
	{Name: "experiment.gc_cycles_per_run", Unit: "count", Better: "lower"},
	{Name: "experiment.gc_pause_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "experiment.improvement_pct", Unit: "%", Better: "higher"},
	// The benchmark's own bookkeeping.
	{Name: "bench.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.loop_other_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.layer_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// metric is one measured value: the median over repetitions, with the
// quartiles and the number of repetitions it is the median of.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// result is what one workload's process reports to the parent.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"` // first few, for the reader
	Ops       map[string]int64  `json:"ops"`                // op counts of this run
	Checksum  string            `json:"checksum,omitempty"` // fleets: global after the warm-up rounds
	Metrics   map[string]metric `json:"metrics"`
	Layers    []layerRow        `json:"layers,omitempty"` // traced run: self time per layer
	WallNs    int64             `json:"wall_ns,omitempty"`
}

// set records a metric from its per-repetition samples.
func (r *result) set(name string, samples ...float64) {
	q1, med, q3 := quartiles(samples)
	r.Metrics[name] = metric{Value: med, Unit: unitOf(name), Q1: q1, Q3: q3, N: len(samples)}
}

// fail counts n failed operations or output checks and keeps the first few
// reasons.
func (r *result) fail(n int64, reason string) {
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, reason)
	}
}

// unitOf looks a metric's unit up in the two tables.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the tables of metrics.go")
}
