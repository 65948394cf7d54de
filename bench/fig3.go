package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"fedpower/internal/experiment"
	"fedpower/internal/nn"
	"fedpower/internal/par"
)

// fig3Options is the paper's Fig. 3 configuration (R = 100, T = 100, the
// three Table II scenarios) under the benchmark's seed and the given
// worker-pool width.
func fig3Options(c *runContext, parallelism int) experiment.Options {
	o := experiment.DefaultOptions()
	o.Seed = c.seed
	o.Rounds = c.sizes.Fig3Rounds
	o.StepsPerRound = c.sizes.Fig3Steps
	o.Parallelism = parallelism
	return o
}

// runFig3 is the fig3_serial / fig3_parallel workload: complete
// experiment.RunFig3 runs, one after the other, at one pool width.
func runFig3(c *runContext, parallel bool) {
	sz, res := c.sizes, c.res
	width, other := 1, runtime.NumCPU()
	runs := sz.Fig3Serial
	if parallel {
		width, other = other, width
		runs = sz.Fig3Parallel
	}
	opts := fig3Options(c, width)

	// Set-up is an untimed run: it grows the heap to its working size and
	// gives the reference result every timed run must reproduce.
	var ref *experiment.Fig3Result
	res.set("setup_s", timeSetups((sz.SetupReps+1)/2, func() {
		ref = mustFig3(res, opts)
	})...)
	if ref == nil {
		return
	}

	if c.trace {
		traceFig3(c, opts, fig3Options(c, other), ref)
		return
	}

	// A repetition is one run: both metrics are medians over the runs.
	mallocs := mallocCount()
	times := make([]float64, runs)
	rates := make([]float64, runs)
	for k := range times {
		start := time.Now()
		got := mustFig3(res, opts)
		elapsed := time.Since(start)
		times[k], rates[k] = float64(elapsed.Nanoseconds())/1e3, 1/elapsed.Seconds()
		if got != nil && !reflect.DeepEqual(got, ref) {
			res.fail(1, fmt.Sprintf("run %d differs from the first run of the same seed", k))
		}
	}
	res.Attempted += int64(runs)
	res.set("ops_per_s", rates...)
	res.set("op_p50_us", times...)
	res.set("bench.allocs_per_op", float64(mallocCount()-mallocs)/float64(runs))

	// Output checks: the other pool width reproduces the result bit for
	// bit, and — at the paper's size, where the claim is made — federation
	// beats local-only training.
	res.Attempted++
	if got := mustFig3(res, fig3Options(c, other)); got != nil && !reflect.DeepEqual(got, ref) {
		res.fail(1, fmt.Sprintf("Parallelism %d and %d disagree", width, other))
	}
	if paper := experiment.DefaultOptions(); opts.Rounds == paper.Rounds && opts.StepsPerRound == paper.StepsPerRound {
		res.Attempted++
		if pct, _ := ref.ImprovementPct(); !(pct > 0) || math.IsInf(pct, 0) {
			res.fail(1, fmt.Sprintf("ImprovementPct = %v, want > 0", pct))
		}
	}
}

// mustFig3 runs the experiment; an error is a failed op.
func mustFig3(res *result, o experiment.Options) *experiment.Fig3Result {
	got, err := experiment.RunFig3(o)
	if err != nil {
		res.fail(1, "RunFig3: "+err.Error())
		return nil
	}
	return got
}

// traceFig3 is the traced pass: one RunScenario per Table II scenario under
// a span each, then one full run per pool width for the speed-up and the
// allocator and collector counts, then the probes of the layers a run
// spends its time in.
func traceFig3(c *runContext, opts, otherOpts experiment.Options, ref *experiment.Fig3Result) {
	res := c.res
	scenarios := experiment.TableII()

	untracedStart := time.Now()
	for i, sc := range scenarios {
		if _, err := experiment.RunScenario(opts, i, sc); err != nil {
			res.fail(1, "RunScenario: "+err.Error())
		}
	}
	untraced := time.Since(untracedStart)

	tr := newTracer(8)
	nRun := tr.name("bench.loop_other")
	names := []int32{tr.name("experiment.scenario1"), tr.name("experiment.scenario2"), tr.name("experiment.scenario3")}
	t0 := tr.now()
	root := tr.add(nRun, -1, 0, t0, t0)
	for i, sc := range scenarios {
		start := tr.now()
		got, err := experiment.RunScenario(opts, i, sc)
		tr.add(names[i], root, 0, start, tr.now())
		if err != nil {
			res.fail(1, "RunScenario: "+err.Error())
		} else if !reflect.DeepEqual(got, ref.Scenarios[i]) {
			res.fail(1, fmt.Sprintf("scenario %d differs between RunScenario and RunFig3", i+1))
		}
	}
	tr.spans[root].end = tr.now()
	rows := c.finishTrace(tr, tr.spans[root].end-t0, untraced.Nanoseconds())
	res.Attempted += 2 * int64(len(scenarios))
	res.set("experiment.scenario1_s", rowByName(rows, "experiment.scenario1").meanSelf()/1e9)
	res.set("experiment.scenario2_s", rowByName(rows, "experiment.scenario2").meanSelf()/1e9)
	res.set("experiment.scenario3_s", rowByName(rows, "experiment.scenario3").meanSelf()/1e9)

	// One run at each width; the one at this workload's width is also read
	// for what it costs the allocator and the collector.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	mustFig3(res, opts)
	own := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	start = time.Now()
	mustFig3(res, otherOpts)
	other := time.Since(start).Seconds()
	res.Attempted += 2
	if serial, parallel := own, other; opts.Parallelism >= otherOpts.Parallelism {
		res.set("par.fig3_speedup", parallel/serial) // this workload is the parallel one
	} else {
		res.set("par.fig3_speedup", serial/parallel)
	}
	res.set("bench.allocs_per_op", float64(after.Mallocs-before.Mallocs))
	res.set("experiment.alloc_mb_per_run", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	res.set("experiment.gc_cycles_per_run", float64(after.NumGC-before.NumGC))
	res.set("experiment.gc_pause_ms_per_run", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	devices := 0
	for _, sc := range scenarios {
		devices += 2 * len(sc.Devices) // each device trains once federated, once alone
	}
	res.set("experiment.train_steps", float64(devices*opts.Rounds*opts.StepsPerRound))
	pct, _ := ref.ImprovementPct()
	res.set("experiment.improvement_pct", pct)

	// A run averages two 687-parameter models per federated round, and fans
	// its scenarios and clients out through par.ForEach.
	a, b := seededParams(c.seed, 0), seededParams(c.seed, 1)
	dst := make([]float64, len(a))
	c.probe("nn.average_params_us", 1e-3, func() { nn.AverageParams(dst, a, b) })
	probePools(c)
	// The update kernels are where a run's training time goes.
	rig := newDeviceRig(c.seed, c.sizes.WarmSteps, false)
	probeUpdate(c, rig)
}

// probePools times the dispatch of one empty task per CPU through each of
// the two worker pools.
func probePools(c *runContext) {
	width := runtime.NumCPU()
	c.probe("par.foreach_ns", 1, func() {
		_ = par.ForEach(width, width, func(int) error { return nil }) // an empty task cannot fail
	})
	pool := par.NewPool(func(int) {})
	defer pool.Close()
	c.probe("par.pool_run_ns", 1, func() { pool.Run(width, width) })
}
