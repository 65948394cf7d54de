// Command fedpower is the repository's one product command. It regenerates
// every table and figure of the paper's evaluation (§IV) on the simulated
// substrate, runs the extension experiments, and runs the real TCP
// deployment of Fig. 1 one process per node role: the aggregation server
// (serve), an interior aggregator of a tree (relay) and an edge device
// (device).
//
// Usage:
//
//	fedpower <command> [flags]
//
// Each command accepts only the flags it reads; `fedpower <command> -h`
// lists them. Results go to stdout, which is byte-identical from run to
// run at any -parallel width; progress, notes and timings go to stderr.
//
// A two-device federation over loopback:
//
//	fedpower serve -addr :7070 -devices 2 -rounds 100
//	fedpower device -server localhost:7070 -id 1 -apps fft,lu
//	fedpower device -server localhost:7070 -id 2 -apps ocean,radix
//
// A tree is one serve root plus one relay per interior node:
//
//	fedpower serve -addr :7070 -devices 2 -rounds 100
//	fedpower relay -addr :7071 -parent localhost:7070 -id 10001 -devices 8
//	fedpower relay -addr :7072 -parent localhost:7070 -id 10002 -devices 8
//	fedpower device -server localhost:7071 -apps fft,lu   (×8, and 8 on :7072)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fedpower"
)

// A command is one row of the command table: the usage text, the flag
// sets and the `all` sequence are all read from it.
type command struct {
	name, summary string
	// inAll puts the command in the `all` sequence, in table order.
	inAll bool
	// flags registers exactly the flags the command reads, writing into j.
	flags func(fs *flag.FlagSet, j *job)
	run   func(j *job) error
}

// commands is the command table. It is filled in init because `all` reads
// it.
var commands []command

func init() {
	commands = []command{
		{"fig2", "reward-signal distribution over the V/f levels (Fig. 2)", true, profiled(csvFlag), (*job).fig2},
		{"fig3", "local-only vs federated reward curves, 3 scenarios (Fig. 3)", true, profiled(train, csvFlag), (*job).fig3},
		{"fig4", "mean selected frequency under each policy, scenario 2 (Fig. 4)", true, profiled(train, csvFlag), (*job).fig4},
		{"table3", "exec time / IPS / power vs Profit+CollabPolicy (Table III)", true, profiled(train, evalEvery, csvFlag), (*job).table3},
		{"fig5", "per-application comparison, 6 training apps per device (Fig. 5)", true, profiled(train, evalEvery, csvFlag), (*job).fig5},
		{"overhead", "controller runtime overhead accounting (Sec. IV-C)", true, profiled(seedFlag), (*job).overhead},
		{"governors", "federated RL vs classical OS governors and a power capper (extension)", true, profiled(train, csvFlag), (*job).governors},
		{"hetero", "heterogeneous per-device power budgets (paper Sec. V future work)", true, profiled(train, csvFlag), (*job).hetero},
		{"privacy", "reward vs raw-trace exposure: local / federated / central [7]", true, profiled(train, csvFlag), (*job).privacy},
		{"multicore", "4-core shared-clock clusters with concurrent workloads (extension)", true, profiled(train, csvFlag), (*job).multicore},
		{"trace", "train, then dump one greedy episode of -app as -format on stdout", false, profiled(train, traceFlags), (*job).trace},
		{"sweep", "hyper-parameter sensitivity sweep along -dim", false, profiled(train, sweepFlags), (*job).sweep},
		{"replicate", "repeat the Fig. 3 comparison across -n seeds (mean ± std)", false, profiled(train, replicateFlags), (*job).replicate},
		{"resilience", "federation over real TCP with injected faults: drops, rejoins, quorum", false, profiled(resilienceFlags), (*job).resilience},
		{"tree", "fleet-scale hierarchical aggregation over TCP: capacity per -topology", false, profiled(treeFlags), (*job).tree},
		{"verify", "fast PASS/FAIL checklist of every headline reproduction claim", false, profiled(train, evalEvery), (*job).verify},
		{"convergence", "rounds-to-threshold per scenario, federated vs local (Sec. III claim)", false, profiled(train), (*job).convergence},
		{"apps", "per-application characteristics, optima and execution times", false, profiled(), (*job).apps},
		{"platform", "the processor model: V/f table, voltages, power envelope", false, profiled(), (*job).platform},
		{"all", "the paper artefacts and extensions in sequence", false, profiled(train, evalEvery, csvFlag), (*job).all},
		{"serve", "the aggregation server of Fig. 1: R rounds of FedAvg over TCP", false, serveFlags, (*job).serve},
		{"relay", "an interior tree aggregator: server to -devices children, client to -parent", false, relayFlags, (*job).relay},
		{"device", "one edge device of Fig. 1: simulated processor, workload and RL controller", false, deviceFlags, (*job).device},
	}
}

// A job is one parsed command line: the output streams and every value a
// flag can set. A command's flags write only into the fields it reads;
// where a library config struct exists, the flags write into it directly.
type job struct {
	out io.Writer
	log *log.Logger

	opts                           fedpower.Options // experiments; device: -steps, -interval, -seed
	csvDir, cpuProfile, memProfile string
	app, format, dim               string // trace, sweep
	n                              int    // replicate
	res                            fedpower.ResilienceOptions
	treeOpts                       fedpower.TreeScaleOptions
	topologies                     string
	node                           node                 // serve, relay
	part                           fedpower.Participant // device: -server, -id, -codec, -retries, -retry-base, -retry-max
	trainApps, save                string               // device
}

// errUsage marks a command line that does not parse. The message and the
// usage text are already on stderr; main exits 2.
var errUsage = errors.New("usage error")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "fedpower:", err)
		os.Exit(1)
	}
}

// run parses and executes one command line.
func run(args []string, stdout, stderr io.Writer) (err error) {
	c, j, err := parse(args, stdout, stderr)
	if err != nil {
		return err
	}
	if j.csvDir != "" {
		if err := os.MkdirAll(j.csvDir, 0o755); err != nil {
			return err
		}
	}
	if j.cpuProfile != "" {
		f, err := os.Create(j.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
			j.log.Printf("cpu profile written to %s", j.cpuProfile)
		}()
	}
	start := time.Now()
	if err := c.run(j); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	if j.memProfile != "" {
		runtime.GC() // materialise live-heap statistics before the snapshot
		if err := create(j.memProfile, pprof.WriteHeapProfile); err != nil {
			return err
		}
		j.log.Printf("heap profile written to %s", j.memProfile)
	}
	fmt.Fprintf(stderr, "[%s completed in %v]\n", c.name, time.Since(start).Round(time.Millisecond))
	return nil
}

// parse looks the command up in the table and parses its flags into a
// fresh job whose defaults are the library's.
func parse(args []string, stdout, stderr io.Writer) (*command, *job, error) {
	if len(args) == 0 {
		usage(stderr)
		return nil, nil, errUsage
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return nil, nil, flag.ErrHelp
	}
	for i := range commands {
		c := &commands[i]
		if c.name != args[0] {
			continue
		}
		j := &job{
			out:      stdout,
			log:      log.New(stderr, "fedpower "+c.name+": ", 0),
			opts:     fedpower.DefaultOptions(),
			res:      fedpower.DefaultResilienceOptions(),
			treeOpts: fedpower.DefaultTreeScaleOptions(),
		}
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		fs.Usage = func() {
			fmt.Fprintf(stderr, "Usage: fedpower %s [flags]\n\n%s\n\nFlags:\n", c.name, c.summary)
			fs.PrintDefaults()
		}
		c.flags(fs, j)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return nil, nil, err
			}
			return nil, nil, errUsage
		}
		if fs.NArg() > 0 {
			fmt.Fprintf(stderr, "fedpower %s: unexpected argument %q\n", c.name, fs.Arg(0))
			fs.Usage()
			return nil, nil, errUsage
		}
		return c, j, nil
	}
	if strings.HasPrefix(args[0], "-") {
		fmt.Fprintf(stderr, "fedpower: flag %s before the command; flags follow it\n\n", args[0])
	} else {
		fmt.Fprintf(stderr, "fedpower: unknown command %q\n\n", args[0])
	}
	usage(stderr)
	return nil, nil, errUsage
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "Usage: fedpower <command> [flags]\n\nCommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-11s %s\n", c.name, c.summary)
	}
	fmt.Fprintf(w, "\n'fedpower <command> -h' lists the flags of one command.\n")
}

// The flag groups of the experiment commands. Each writes into the job,
// with the library default as the flag default unless the command has its
// own (resilience: 20 rounds).

func profiled(groups ...func(*flag.FlagSet, *job)) func(*flag.FlagSet, *job) {
	return func(fs *flag.FlagSet, j *job) {
		fs.StringVar(&j.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
		fs.StringVar(&j.memProfile, "memprofile", "", "write a pprof heap profile to this file after the run")
		for _, g := range groups {
			g(fs, j)
		}
	}
}

func seedFlag(fs *flag.FlagSet, j *job) {
	fs.Int64Var(&j.opts.Seed, "seed", j.opts.Seed, "experiment root seed")
}

func train(fs *flag.FlagSet, j *job) {
	seedFlag(fs, j)
	fs.IntVar(&j.opts.Rounds, "rounds", j.opts.Rounds, "federated round count R")
	fs.IntVar(&j.opts.StepsPerRound, "steps", j.opts.StepsPerRound, "steps per round T")
	fs.IntVar(&j.opts.Parallelism, "parallel", 0, "worker-pool width for experiment units and federated clients (0 = all CPUs, 1 = sequential; results are bit-identical at any width)")
}

func evalEvery(fs *flag.FlagSet, j *job) {
	fs.IntVar(&j.opts.ExecEvalEvery, "eval-every", j.opts.ExecEvalEvery, "run-to-completion evaluation cadence in rounds")
}

func csvFlag(fs *flag.FlagSet, j *job) {
	fs.StringVar(&j.csvDir, "csv", "", "also write each experiment's data as CSV into this directory")
}

func traceFlags(fs *flag.FlagSet, j *job) {
	fs.StringVar(&j.app, "app", "fft", "application to trace")
	fs.StringVar(&j.format, "format", "csv", "trace output format: csv or jsonl")
}

func sweepFlags(fs *flag.FlagSet, j *job) {
	fs.StringVar(&j.dim, "dim", "lr", "sweep dimension: lr, tau, batch or width")
}

func replicateFlags(fs *flag.FlagSet, j *job) {
	fs.IntVar(&j.n, "n", 5, "number of independent seeds")
}

func resilienceFlags(fs *flag.FlagSet, j *job) {
	r := &j.res
	fs.Int64Var(&r.Options.Seed, "seed", r.Options.Seed, "experiment root seed")
	fs.IntVar(&r.Options.Rounds, "rounds", 20, "federated round count R")
	fs.IntVar(&r.Options.StepsPerRound, "steps", r.Options.StepsPerRound, "steps per round T")
	fs.Float64Var(&r.Faults.DropRate, "drop-rate", 0.05, "per-I/O connection-drop probability")
	fs.Float64Var(&r.Faults.TruncateRate, "truncate-rate", 0, "per-I/O frame-truncation probability")
	fs.IntVar(&r.Quorum, "quorum", 1, "minimum surviving updates per round (0 = all devices)")
	fs.Int64Var(&r.FaultSeed, "fault-seed", 1, "fault-schedule seed")
	codecVar(fs, &r.Codec)
}

func treeFlags(fs *flag.FlagSet, j *job) {
	t := &j.treeOpts
	fs.Int64Var(&t.Seed, "seed", t.Seed, "seed of the synthetic trainers and the initial model")
	fs.IntVar(&t.Rounds, "rounds", t.Rounds, "federated rounds per topology")
	fs.IntVar(&t.Parallelism, "parallel", 0, "round worker width of every server in the tree (0 = automatic; results are bit-identical at any width)")
	fs.StringVar(&j.topologies, "topology", "500,10x50,4x5x25", "comma-separated fan-out specs (\"500\" flat, \"4x5x25\" 3-level)")
	codecVar(fs, &t.Codec)
}

// codecVar registers -codec, writing into p; the default is dense.
func codecVar(fs *flag.FlagSet, p *fedpower.Codec) {
	*p = fedpower.DenseCodec()
	fs.Var((*codecValue)(p), "codec", "wire codec `name`: dense (the default), delta, quant8 or quant16; every node of a federation must use the same")
}

// codecValue is a -codec flag: an unknown codec name is a usage error.
type codecValue fedpower.Codec

func (v *codecValue) String() string { return (*fedpower.Codec)(v).String() }

func (v *codecValue) Set(s string) (err error) {
	*(*fedpower.Codec)(v), err = fedpower.ParseCodec(s)
	return err
}

// idValue is a client-ID flag. IDs are uint32 on the wire, so a value that
// does not fit is a usage error instead of another device's slot.
type idValue uint32

func (v *idValue) String() string { return strconv.FormatUint(uint64(*v), 10) }

func (v *idValue) Set(s string) error {
	n, err := strconv.ParseUint(s, 0, 32)
	*v = idValue(n)
	return err
}

// writeCSV writes one experiment's data file when -csv is set.
func (j *job) writeCSV(name string, write func(io.Writer) error) error {
	if j.csvDir == "" {
		return nil
	}
	path := filepath.Join(j.csvDir, name)
	if err := create(path, write); err != nil {
		return err
	}
	j.log.Printf("csv written to %s", path)
	return nil
}

// create writes the file at path through write; a failed close is an error.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return fmt.Errorf("close %s: %w", path, cerr)
	}
	return nil
}
