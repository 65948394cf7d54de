// Command bench is the repository's benchmark: five kinds of work a user of
// fedpower waits for — a training device's control loop, a deployed
// device's control loop, the Fig. 3 experiment (sequential and parallel),
// and federated rounds over TCP (flat and through aggregators) — measured
// end to end and, with -trace, layer by layer. README.md in this directory
// defines every workload and metric.
//
//	go run ./bench -seed 1                  every workload, end-to-end metrics
//	go run ./bench -seed 1 -trace           every workload, layer tables
//	go run ./bench -seed 1 -workload fleet_flat -json out.jsonl
//	go run ./bench -compare a.jsonl b.jsonl
//
// Each workload runs in a child process of its own (the parent re-executes
// itself), so peak memory and allocation counts belong to that workload
// alone. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when
// any operation or output check failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one workload: its name, why it is in the benchmark, and
// the function that runs it inside the child process.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(c *runContext)
}

var workloads = []workloadDef{
	{"device_train", "one device running Algorithm 1 in the paper's regime (first 120k steps): dominated by the every-20th-step policy update, so training-kernel, replay and optimiser work shows here",
		func(c *runContext) {
			runDevice(c, deviceWorkload{warm: c.sizes.WarmSteps, steps: c.sizes.TrainSteps, reps: 2 * c.sizes.DeviceReps, lat: c.sizes.TrainSteps})
		}},
	{"device_train_aged", "the same loop on a controller trained for 160k steps first, as a deployed device is after a day: the update costs ~1.6x more there (Adam moments stuck at the smallest subnormal)",
		func(c *runContext) {
			runDevice(c, deviceWorkload{warm: c.sizes.AgedSteps, steps: c.sizes.AgedWindow, reps: 2 * c.sizes.DeviceReps, lat: c.sizes.AgedWindow})
		}},
	{"device_greedy", "the same device under the frozen greedy policy: plant step, featurize and one forward pass only, so a step-path change shows here and an update-kernel change must not",
		func(c *runContext) {
			runDevice(c, deviceWorkload{greedy: true, warm: c.sizes.WarmSteps, steps: c.sizes.GreedySteps, reps: c.sizes.DeviceReps, lat: max(1, c.sizes.GreedySteps/3)})
		}},
	{"fig3_serial", "a complete Fig. 3 reproduction (R=100, T=100, three scenarios) at Parallelism 1: what a user reproducing the paper waits for; exercises experiment, in-process FedAvg and the GC",
		func(c *runContext) { runFig3(c, false) }},
	{"fig3_parallel", "the same Fig. 3 run at Parallelism = nproc: the measured answer to what -parallel buys on this host; adds par.ForEach fan-out and concurrent allocation",
		func(c *runContext) { runFig3(c, true) }},
	{"fleet_flat", "16 devices with precomputed updates on one TCP server: isolates the aggregation plane (encode, socket I/O, decode, exact accumulate, mean) from client compute",
		func(c *runContext) { runFleet(c, 16) }},
	{"fleet_tree", "the same 16 devices behind 4 aggregators (4x4): relay frames, accumulator merges and a second hop, so work that helps one transport and costs the other is visible",
		func(c *runContext) { runFleet(c, 4, 4) }},
}

// sizes are the op counts of a run: everything a repetition count or a
// loop bound depends on. They are fixed by -seconds alone, so two runs with
// the same flags do the same work. -seconds scales how many ops a workload
// does: on fleets and Fig. 3 through the ops per repetition, on devices
// through the number of repetitions, because there the window of a device's
// life that a repetition times is part of what the workload means.
type sizes struct {
	Reps       int `json:"reps"`        // fleet throughput repetitions
	DeviceReps int `json:"device_reps"` // device_greedy throughput repetitions (training devices: twice as many)
	LatReps    int `json:"lat_reps"`    // device latency repetitions
	SetupReps  int `json:"setup_reps"`  // times a fleet is set up (Fig. 3: half as many; devices: once per repetition)

	WarmSteps   int `json:"warm_steps"`   // device training steps before timing
	AgedSteps   int `json:"aged_steps"`   // the same for device_train_aged
	TrainSteps  int `json:"train_steps"`  // device_train steps per repetition
	AgedWindow  int `json:"aged_window"`  // device_train_aged steps per repetition
	GreedySteps int `json:"greedy_steps"` // device_greedy steps per repetition
	TraceSteps  int `json:"trace_steps"`  // device steps of a traced pass, at most

	Fig3Rounds   int `json:"fig3_rounds"`   // R
	Fig3Steps    int `json:"fig3_steps"`    // T
	Fig3Serial   int `json:"fig3_serial"`   // timed runs at Parallelism 1
	Fig3Parallel int `json:"fig3_parallel"` // timed runs at Parallelism nproc

	WarmRounds  int `json:"warm_rounds"`  // fleet rounds before timing
	FlatRounds  int `json:"flat_rounds"`  // fleet_flat rounds per repetition
	TreeRounds  int `json:"tree_rounds"`  // fleet_tree rounds per repetition
	TraceRounds int `json:"trace_rounds"` // fleet rounds of a traced pass
	CodecRounds int `json:"codec_rounds"` // fleet rounds per alternative codec

	ProbeReps int   `json:"probe_reps"` // repetitions of an isolated probe
	ProbeNs   int64 `json:"probe_ns"`   // length of one probe repetition
}

// sizesFor scales the op counts, calibrated on the 2-core reference host so
// that a workload measures for about ten seconds, to the requested length.
func sizesFor(seconds float64) sizes {
	n := func(base int) int { return max(1, int(math.Round(float64(base)*seconds/10))) }
	return sizes{
		Reps: 10, DeviceReps: n(10), LatReps: 3, SetupReps: 5,
		WarmSteps: 20_000, AgedSteps: 160_000, TrainSteps: 100_000, AgedWindow: 40_000, GreedySteps: 1_500_000, TraceSteps: 100_000,
		Fig3Rounds: 100, Fig3Steps: 100, Fig3Serial: n(14), Fig3Parallel: n(20),
		WarmRounds: 50, FlatRounds: n(2_000), TreeRounds: n(850), TraceRounds: n(1_000), CodecRounds: n(500),
		ProbeReps: 10, ProbeNs: 5e6,
	}
}

// runContext is what a workload runs against inside the child process.
type runContext struct {
	seed   int64
	trace  bool
	outDir string
	sizes  sizes
	res    *result
}

// runWorkload runs one workload in this process and returns its result.
func runWorkload(w workloadDef, seed int64, trace bool, outDir string, sz sizes) *result {
	c := &runContext{seed: seed, trace: trace, outDir: outDir, sizes: sz,
		res: &result{Workload: w.Name, Ops: map[string]int64{}, Metrics: map[string]metric{}}}
	stop := make(chan struct{})
	samples := make(chan []float64)
	go sampleRSS(stop, samples)
	w.run(c)
	close(stop)
	if rss := <-samples; !trace {
		c.res.set("rss_mb", rss...)
	}
	c.res.set("bench.peak_rss_mb", procStatusMB("VmHWM:"))
	if c.res.Attempted == 0 {
		c.res.Attempted = 1 // a workload that could not even start attempted to
	}
	c.res.Correct = c.res.Failed == 0
	return c.res
}

// probe times fn in isolation: ProbeReps repetitions of as many calls as
// fill ProbeNs, reported per call in nanoseconds times scale.
func (c *runContext) probe(name string, scale float64, fn func()) {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if el := time.Since(start).Nanoseconds(); el >= c.sizes.ProbeNs/8 || iters >= 1<<24 {
			iters = max(1, int(float64(iters)*float64(c.sizes.ProbeNs)/float64(max(el, 1))))
			break
		}
		iters *= 4
	}
	samples := make([]float64, c.sizes.ProbeReps)
	for k := range samples {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		samples[k] = float64(time.Since(start).Nanoseconds()) / float64(iters) * scale
	}
	c.res.set(name, samples...)
}

// finishTrace closes a traced pass that took wallNs (untracedNs without the
// spans, for the same ops): it builds the layer table, writes the spans out
// and reports how well the table sums to the wall-clock and what tracing
// cost. It returns the table for the workload's own per-layer metrics.
func (c *runContext) finishTrace(tr *tracer, wallNs, untracedNs int64) []layerRow {
	res := c.res
	rows := tr.layerTable(wallNs)
	res.Layers, res.WallNs = rows, wallNs
	res.Attempted++
	if err := tr.write(c.outDir, res.Workload); err != nil {
		res.fail(1, err.Error())
	}
	sum := int64(0)
	for _, r := range rows {
		sum += r.SelfNs
	}
	res.set("bench.layer_sum_ratio", float64(sum)/float64(wallNs))
	res.set("bench.trace_overhead_ratio", float64(wallNs)/float64(untracedNs))
	res.set("bench.loop_other_ns", rowByName(rows, "bench.loop_other").meanSelf())
	return rows
}

// timeSetups runs setup reps times and returns how long each took, in
// seconds; the state the last call leaves is the one the workload uses.
func timeSetups(reps int, setup func()) []float64 {
	out := make([]float64, reps)
	for k := range out {
		start := time.Now()
		setup()
		out[k] = time.Since(start).Seconds()
	}
	return out
}

// mallocCount is the process's cumulative count of heap allocations.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sampleRSS reads the resident set every 50 ms until stop is closed, then
// sends the samples, in MB. A peak is a maximum and moves with the timing of
// garbage collections; the median of many samples does not. A tick allocates
// nothing (one pread of /proc/self/statm into a fixed buffer), so the
// sampler does not show in a workload's allocation count.
func sampleRSS(stop <-chan struct{}, out chan<- []float64) {
	samples := make([]float64, 0, 4096)
	statm, err := os.Open("/proc/self/statm")
	if err != nil {
		<-stop
		out <- samples
		return
	}
	defer func() { _ = statm.Close() }() // read only: nothing to lose
	pageMB := float64(os.Getpagesize()) / (1 << 20)
	var buf [128]byte
	read := func() {
		n, _ := statm.ReadAt(buf[:], 0) // a short file: EOF comes with the data
		pages, field := 0, 0
		for _, ch := range buf[:n] {
			if ch == ' ' {
				if field++; field == 2 {
					break
				}
			} else if field == 1 { // "size resident shared ...": the second number
				pages = pages*10 + int(ch-'0')
			}
		}
		if pages > 0 {
			samples = append(samples, float64(pages)*pageMB)
		}
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	read()
	for {
		select {
		case <-tick.C:
			read()
		case <-stop:
			out <- samples
			return
		}
	}
}

// procStatusMB reads one kB field of /proc/self/status (VmHWM: the peak
// resident set), in MB.
func procStatusMB(field string) float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// environment is the header every recorded run carries.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Sizes      sizes   `json:"op_counts"`
}

// document is one invocation's record: a line of a -json file.
type document struct {
	Env       environment `json:"env"`
	Workloads []*result   `json:"workloads"`
}

func readEnvironment(seed int64, seconds float64, trace bool, sz sizes) environment {
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: "unknown", Seed: seed, Seconds: seconds, Trace: trace, Sizes: sz}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	if cwd, err := os.Getwd(); err == nil {
		// Only this checkout counts: never report a commit of a repository
		// further up.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
	}
	if out, err := git.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	// The flag package reads "-trace 1" as a boolean followed by an
	// argument; fold the separate-value form into "-trace=1".
	for i := 0; i+1 < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && (args[i+1] == "0" || args[i+1] == "1") {
			args = append(append(args[:i:i], "-trace="+args[i+1]), args[i+2:]...)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed the workloads' inputs are generated from")
		seconds  = fs.Float64("seconds", 10, "how long each workload measures, about; scales every op count")
		trace    = fs.Bool("trace", false, "traced run: layer tables and per-layer metrics, not end-to-end metrics")
		jsonPath = fs.String("json", "", "append this run, with its environment header, to a JSON-lines file")
		outDir   = fs.String("out", "bench/out", "directory the traced passes write their spans to")
		compare  = fs.Bool("compare", false, "compare two -json files given as arguments; non-zero exit when a bound is crossed")
		child    = fs.Bool("child", false, "run the one named workload in this process and print its result (internal)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be in (0, 60]")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *name)
		return 2
	}
	sz := sizesFor(*seconds)

	if *child {
		out, err := json.Marshal(runWorkload(selected[0], *seed, *trace, *outDir, sz))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}

	// An interrupted benchmark kills the workload process it is waiting for
	// and waits until it has ended, so no process outlives this one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	doc := document{Env: readEnvironment(*seed, *seconds, *trace, sz)}
	printEnvironment(os.Stdout, doc.Env)
	for _, w := range selected {
		res := runChild(ctx, w.Name, *seed, *seconds, *trace, *outDir)
		doc.Workloads = append(doc.Workloads, res)
		printResult(os.Stdout, res, *trace)
	}
	checkFleetsAgree(doc.Workloads)

	code := 0
	if *jsonPath != "" {
		if err := appendDocument(*jsonPath, doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	line, correct := summaryLine(doc.Workloads, *trace)
	fmt.Println(line)
	if !correct {
		code = 1
	}
	return code
}

// runChild re-executes this program for one workload and parses the result
// it prints. A child that dies, hangs or prints nonsense is a failed op.
func runChild(ctx context.Context, name string, seed int64, seconds float64, trace bool, outDir string) *result {
	failed := func(err error) *result {
		return &result{Workload: name, Attempted: 1, Failed: 1, Failures: []string{err.Error()},
			Ops: map[string]int64{}, Metrics: map[string]metric{}}
	}
	exe, err := os.Executable()
	if err != nil {
		return failed(err)
	}
	// A workload measures for about -seconds and sets up for a few more;
	// one that takes many times that is stuck.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(8*seconds+60)*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return failed(fmt.Errorf("workload process: %w", err))
	}
	res := new(result)
	if err := json.Unmarshal(bytes.TrimSpace(out), res); err != nil {
		return failed(fmt.Errorf("workload process printed no result: %w", err))
	}
	return res
}

// checkFleetsAgree is the one output check that spans workloads: a flat and
// a tree fleet of the same seed commit the same model after the warm-up.
func checkFleetsAgree(results []*result) {
	var flat, tree *result
	for _, r := range results {
		switch r.Workload {
		case "fleet_flat":
			flat = r
		case "fleet_tree":
			tree = r
		}
	}
	if flat == nil || tree == nil {
		return
	}
	tree.Attempted++
	if flat.Checksum != tree.Checksum || flat.Checksum == "" {
		tree.fail(1, fmt.Sprintf("checksum %q differs from fleet_flat's %q", tree.Checksum, flat.Checksum))
		tree.Correct = false
	}
}

// appendDocument adds the run as one line to a JSON-lines file.
func appendDocument(path string, doc document) error {
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// summaryLine is the machine-readable last line: the end-to-end metrics of
// an untraced run or every per-layer metric of a traced one. With several
// workloads the metric names are prefixed by "<workload>/".
func summaryLine(results []*result, trace bool) (string, bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		summary.Correct = summary.Correct && r.Correct && r.Failed == 0
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
		for _, d := range defs {
			key := d.Name
			if len(results) > 1 {
				key = r.Workload + "/" + d.Name
			}
			v := r.Metrics[d.Name].Value // a layer the workload never enters reads 0
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v, summary.Correct = 0, false
			}
			summary.Metrics[key] = value{Value: v, Unit: d.Unit}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`, false
	}
	return string(line), summary.Correct
}
