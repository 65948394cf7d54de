package main

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"fedpower/internal/core"
	"fedpower/internal/experiment"
	"fedpower/internal/nn"
	"fedpower/internal/replay"
	"fedpower/internal/sim"
	"fedpower/internal/workload"
)

// intervalS is the paper's DVFS control interval.
const intervalS = 0.5

// deviceRig is one simulated Jetson device with its application stream and
// either a training controller (Algorithm 1) or a frozen greedy policy,
// assembled from public parts exactly as examples/quickstart does.
type deviceRig struct {
	params core.Params
	dev    *sim.Device
	stream *workload.Stream
	ctrl   *core.Controller
	policy experiment.Policy // set for the greedy workload only

	obs   sim.Observation
	state []float64
	apps  int64 // applications run to completion
	bad   int64 // steps with an invalid action or a non-finite reward
}

// newDeviceRig builds the device from the seed and trains it for warm
// steps, so the replay ring is full and the temperature at its floor when
// timing starts. With greedy set, the trained model is frozen into the
// evaluation policy.
func newDeviceRig(seed int64, warm int, greedy bool) *deviceRig {
	table := sim.JetsonNanoTable()
	r := &deviceRig{params: core.Defaults(table.Len())}
	r.dev = sim.NewDevice(table, sim.DefaultPowerModel(), rand.New(rand.NewSource(seed)))
	r.ctrl = core.NewController(r.params, rand.New(rand.NewSource(seed+1)))
	r.stream = workload.NewStream(rand.New(rand.NewSource(seed+2)), workload.SPLASH2())
	r.dev.Load(r.stream.Next())
	r.dev.SetLevel(table.Len() / 2)
	r.obs = r.dev.Step(intervalS)
	for i := 0; i < warm; i++ {
		r.trainStep()
	}
	if greedy {
		r.policy = experiment.NewNeuralPolicy(r.params, r.ctrl.ModelParams())
	}
	return r
}

// valid is the per-step output check: a V/f level in range and a finite
// reward.
func (r *deviceRig) valid(action int, reward float64) bool {
	return action >= 0 && action < r.params.Actions && !math.IsNaN(reward) && !math.IsInf(reward, 0)
}

// trainStep is one control interval of Algorithm 1.
func (r *deviceRig) trainStep() {
	if r.dev.Done() {
		r.dev.Load(r.stream.Next())
		r.apps++
	}
	r.state = core.StateVector(r.obs, r.state)
	action := r.ctrl.SelectAction(r.state)
	r.dev.SetLevel(action)
	r.obs = r.dev.Step(intervalS)
	reward := r.params.Reward.Reward(r.obs.NormFreq, r.obs.PowerW)
	if !r.valid(action, reward) {
		r.bad++
		return
	}
	r.ctrl.Observe(r.state, action, reward)
}

// greedyStep is one control interval under the deployed policy, as every
// evaluation episode runs it.
func (r *deviceRig) greedyStep() {
	if r.dev.Done() {
		r.dev.Load(r.stream.Next())
		r.apps++
	}
	action := r.policy.Action(r.obs)
	r.dev.SetLevel(action)
	r.obs = r.dev.Step(intervalS)
	if !r.valid(action, r.params.Reward.Reward(r.obs.NormFreq, r.obs.PowerW)) {
		r.bad++
	}
}

// step dispatches to the workload's step.
func (r *deviceRig) step() {
	if r.policy != nil {
		r.greedyStep()
	} else {
		r.trainStep()
	}
}

// isUpdateStep reports whether the step that just ran ended in a policy
// update (greedy steps never do).
func (r *deviceRig) isUpdateStep() bool {
	return r.policy == nil && r.ctrl.Step()%r.params.OptimInterval == 0
}

// deviceWorkload is the shape of one device workload: how long the device
// has trained when timing starts, and how much is timed.
type deviceWorkload struct {
	greedy bool
	warm   int // training steps before the timed window
	steps  int // steps of one throughput window
	reps   int // throughput repetitions
	lat    int // steps of one latency window
}

// runDevice is the device_train / device_train_aged / device_greedy
// workload. Every repetition sets up a device of its own, from a seed of
// its own, and times one window of its life: how fast a step is depends on
// how long the controller has trained and on what it has learned, so one
// long trajectory would measure one seed's luck, not the code.
func runDevice(c *runContext, w deviceWorkload) {
	if c.trace {
		traceDevice(c, w)
		return
	}
	sz, res := c.sizes, c.res
	var setups, rates, p50, updateP50 []float64
	all := make([]uint32, 0, sz.LatReps*w.lat)
	var mallocs uint64
	var bad, apps int64
	for k := 0; k < w.reps+sz.LatReps; k++ {
		began := time.Now()
		rig := newDeviceRig(c.seed*7919+int64(k)*101, w.warm, w.greedy)
		setups = append(setups, time.Since(began).Seconds())
		if k < w.reps {
			// Throughput: nothing is timed inside the window.
			before := mallocCount()
			start := time.Now()
			for i := 0; i < w.steps; i++ {
				rig.step()
			}
			rates = append(rates, float64(w.steps)/time.Since(start).Seconds())
			mallocs += mallocCount() - before
		} else {
			// Latency: one timestamp per step.
			all = all[:len(all)+w.lat]
			mid, update := stepLatencies(rig, all[len(all)-w.lat:])
			p50, updateP50 = append(p50, mid), append(updateP50, update)
		}
		bad, apps = bad+rig.bad, apps+rig.apps
	}
	slices.Sort(all)
	res.set("setup_s", setups...)
	res.set("ops_per_s", rates...)
	res.set("op_p50_us", p50...)
	res.Attempted += int64(w.reps*w.steps + sz.LatReps*w.lat)
	if bad > 0 {
		res.fail(bad, "device step saw an invalid action or a non-finite reward")
	}
	res.Ops["latency_samples"] = int64(len(all))
	res.Ops["apps_completed"] = apps
	res.set("bench.allocs_per_op", float64(mallocs)/float64(w.reps*w.steps))
	reportStepTails(res, all, updateP50...)
}

// reportStepTails records the diagnostics of latency passes: the tail of all
// their steps (ascending) and, per pass, the median of the steps that ended
// in an update (0 for a pass without one: the greedy workload).
func reportStepTails(res *result, sorted []uint32, updateP50 ...float64) {
	res.set("core.step_p99_us", percentile(sorted, 99)/1e3)
	res.set("core.step_p999_us", percentile(sorted, 99.9)/1e3)
	if updateP50 = slices.DeleteFunc(updateP50, func(v float64) bool { return v <= 0 }); len(updateP50) > 0 {
		res.set("core.update_step_p50_us", updateP50...)
	}
}

// stepLatencies runs one control step per element of lat, reading the clock
// once per step, and leaves the latencies in lat, ascending, in ns. It
// returns the median step and the median of the steps that ended in a policy
// update (0 when there were none), in us.
func stepLatencies(rig *deviceRig, lat []uint32) (p50, updateP50 float64) {
	updates := make([]uint32, 0, len(lat)/rig.params.OptimInterval+1)
	prev := time.Now()
	for i := range lat {
		rig.step()
		now := time.Now()
		lat[i] = uint32(min(now.Sub(prev), math.MaxUint32))
		prev = now
		if rig.isUpdateStep() {
			updates = append(updates, lat[i])
		}
	}
	slices.Sort(lat)
	if len(updates) > 0 {
		slices.Sort(updates)
		updateP50 = percentile(updates, 50) / 1e3
	}
	return percentile(lat, 50) / 1e3, updateP50
}

// traceDevice is the traced run of a device workload: an untraced pass for
// the overhead ratio, a latency pass for the tails, the traced pass with a
// span around every call into a layer, and the isolated probes of the layers
// a span cannot see into. Each pass runs the same window of the same device
// (built again from the same seed), so all three do identical work at the
// training age the workload is about.
func traceDevice(c *runContext, w deviceWorkload) {
	res, greedy := c.res, w.greedy
	n := min(w.steps, c.sizes.TraceSteps)

	rig := newDeviceRig(c.seed, w.warm, greedy)
	mallocs := mallocCount()
	start := time.Now()
	for i := 0; i < n; i++ {
		rig.step()
	}
	untraced := time.Since(start)
	res.set("bench.allocs_per_op", float64(mallocCount()-mallocs)/float64(n))
	bad := rig.bad

	rig = newDeviceRig(c.seed, w.warm, greedy)
	lat := make([]uint32, n)
	_, update := stepLatencies(rig, lat)
	reportStepTails(res, lat, update)
	bad += rig.bad

	rig = newDeviceRig(c.seed, w.warm, greedy)

	tr := newTracer(8 * n)
	var (
		nStep     = tr.name("bench.loop_other") // the step span's self time is the loop's own cost
		nNext     = tr.name("workload.next")
		nFeat     = tr.name("core.featurize")
		nSelect   = tr.name("core.select")
		nPolicy   = tr.name("experiment.policy_action")
		nSim      = tr.name("sim.step")
		nReward   = tr.name("core.reward")
		nObserve  = tr.name("core.observe")
		nUpdating = tr.name("core.observe+update")
	)
	apps := rig.apps
	updates := int64(0)
	t0 := tr.now()
	for i := 0; i < n; i++ {
		op := int64(i)
		// The step span is closed when the next step opens, so the steps
		// tile the pass and the rows of the table sum to its wall-clock.
		root := tr.add(nStep, -1, op, t0, t0)
		t := t0
		if rig.dev.Done() {
			rig.dev.Load(rig.stream.Next())
			rig.apps++
			t = tr.now()
			tr.add(nNext, root, op, t0, t)
		}
		var action int
		if greedy {
			action = rig.policy.Action(rig.obs)
			t1 := tr.now()
			tr.add(nPolicy, root, op, t, t1)
			t = t1
		} else {
			rig.state = core.StateVector(rig.obs, rig.state)
			t1 := tr.now()
			tr.add(nFeat, root, op, t, t1)
			action = rig.ctrl.SelectAction(rig.state)
			t = tr.now()
			tr.add(nSelect, root, op, t1, t)
		}
		rig.dev.SetLevel(action)
		rig.obs = rig.dev.Step(intervalS)
		t2 := tr.now()
		tr.add(nSim, root, op, t, t2)
		reward := rig.params.Reward.Reward(rig.obs.NormFreq, rig.obs.PowerW)
		t3 := tr.now()
		tr.add(nReward, root, op, t2, t3)
		if !rig.valid(action, reward) {
			rig.bad++
		} else if !greedy {
			rig.ctrl.Observe(rig.state, action, reward)
			t4 := tr.now()
			if rig.isUpdateStep() {
				tr.add(nUpdating, root, op, t3, t4)
				updates++
			} else {
				tr.add(nObserve, root, op, t3, t4)
			}
		}
		t0 = tr.now()
		tr.spans[root].end = t0
	}
	rows := c.finishTrace(tr, t0-tr.spans[0].start, untraced.Nanoseconds())

	res.Attempted += int64(3 * n)
	if bad += rig.bad; bad > 0 {
		res.fail(bad, "device step saw an invalid action or a non-finite reward")
	}
	res.set("sim.step_ns", rowByName(rows, "sim.step").meanSelf())
	res.set("sim.steps", float64(n))
	res.set("workload.next_ns", rowByName(rows, "workload.next").meanSelf())
	res.set("workload.apps_completed", float64(rig.apps-apps))
	res.set("core.reward_ns", rowByName(rows, "core.reward").meanSelf())

	probeStepPath(c, rig)
	if greedy {
		res.set("experiment.policy_action_ns", rowByName(rows, "experiment.policy_action").meanSelf())
		return
	}
	observe := rowByName(rows, "core.observe").meanSelf()
	updating := rowByName(rows, "core.observe+update")
	res.set("core.select_ns", rowByName(rows, "core.select").meanSelf())
	res.set("core.observe_ns", observe)
	res.set("core.updates", float64(updates))
	// An update step's Observe is a plain Observe plus the update.
	res.set("core.update_share", (float64(updating.SelfNs)-observe*float64(updating.Count))/float64(res.WallNs))
	// The probe runs a few thousand updates, which age a controller; start
	// it where the workload starts, not where the traced window ended.
	probeUpdate(c, newDeviceRig(c.seed, w.warm, false))
}

// probeStepPath times, in isolation, the calls the greedy policy makes
// inside its one exported entry point.
func probeStepPath(c *runContext, rig *deviceRig) {
	state := core.StateVector(rig.obs, nil)
	net := rig.ctrl.Network()
	c.probe("core.featurize_ns", 1, func() { state = core.StateVector(rig.obs, state) })
	c.probe("core.greedy_ns", 1, func() { sinkInt = rig.ctrl.GreedyAction(state) })
	c.probe("nn.forward_ns", 1, func() { sinkFloats = net.Forward(state) })
}

// probeUpdate times the policy update and its parts at the paper's shapes:
// 5-32-15 network, batch 128, a full 4000-sample replay ring.
func probeUpdate(c *runContext, rig *deviceRig) {
	p := rig.params
	net := rig.ctrl.Network().Clone()
	buf := rig.ctrl.Buffer()
	rng := rand.New(rand.NewSource(c.seed + 3))
	actions := make([]int, p.BatchSize)
	rewards := make([]float64, p.BatchSize)
	outs := make([]float64, p.BatchSize)
	gs := make([]float64, p.BatchSize)
	grad := make([]float64, net.NumParams())
	adam := nn.NewAdam(p.LearningRate)
	ring := replay.New(p.ReplayCapacity)
	state := core.StateVector(rig.obs, nil)
	for i := 0; i < p.ReplayCapacity; i++ {
		ring.Add(state, i%p.Actions, 0.5)
	}
	for i := range gs {
		gs[i] = 1 / float64(p.BatchSize)
	}

	c.probe("core.update_us", 1e-3, rig.ctrl.Update)
	c.probe("replay.add_ns", 1, func() { ring.Add(state, 3, 0.5) })
	c.probe("replay.sample_into_us", 1e-3, func() {
		buf.SampleInto(rng, net.BatchStates(p.BatchSize), actions, rewards)
	})
	c.probe("nn.forward_batch_us", 1e-3, func() { net.ForwardBatch(actions, outs) })
	// Backward reads the activations the last forward pass left and keeps them.
	c.probe("nn.backward_batch_us", 1e-3, func() { net.BackwardBatch(actions, gs, grad) })
	c.probe("nn.adam_step_us", 1e-3, func() { adam.Step(net.Params(), grad) })
}

// Package-level sinks keep probed calls from being optimised away.
var (
	sinkInt    int
	sinkFloats []float64
)
