package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fedpower"
)

// defaults is a job holding the library defaults and nothing else: the
// baseline every flag-table case edits into its expectation.
func defaults() *job {
	return &job{
		opts:     fedpower.DefaultOptions(),
		res:      fedpower.DefaultResilienceOptions(),
		treeOpts: fedpower.DefaultTreeScaleOptions(),
	}
}

func nodeDefaults(j *job) {
	j.node = node{addr: "127.0.0.1:7070", devices: 2, seed: 1, joinTimeout: 10 * time.Second, codec: fedpower.DenseCodec()}
}

func serveDefaults(j *job) { nodeDefaults(j); j.node.rounds = 100 }

func relayDefaults(j *job) { nodeDefaults(j); j.node.id = 10001 }

func deviceDefaults(j *job) {
	j.part.Addr = "127.0.0.1:7070"
	j.part.Retry = fedpower.Backoff{Attempts: 3, Base: 100 * time.Millisecond, Max: 5 * time.Second}
	j.part.Codec = fedpower.DenseCodec()
	j.trainApps = "fft,lu"
	j.opts.Seed = 42
}

func resilienceDefaults(j *job) {
	j.res.Options.Rounds = 20
	j.res.Faults.DropRate = 0.05
	j.res.Quorum = 1
	j.res.FaultSeed = 1
	j.res.Codec = fedpower.DenseCodec()
}

func treeDefaults(j *job) {
	j.treeOpts.Codec = fedpower.DenseCodec()
	j.topologies = "500,10x50,4x5x25"
}

// TestFlagsToConfig parses one command line per case and compares the whole
// job with the library defaults plus the edits the flags name.
func TestFlagsToConfig(t *testing.T) {
	cases := []struct {
		args string
		want func(j *job)
	}{
		{"fig2", func(j *job) {}},
		{"fig2 -csv out", func(j *job) { j.csvDir = "out" }},
		{"fig3", func(j *job) {}},
		{"fig3 -rounds 3 -steps 50 -seed 9 -parallel 2 -csv d -cpuprofile c.pprof -memprofile m.pprof", func(j *job) {
			j.opts.Rounds, j.opts.StepsPerRound, j.opts.Seed, j.opts.Parallelism = 3, 50, 9, 2
			j.csvDir, j.cpuProfile, j.memProfile = "d", "c.pprof", "m.pprof"
		}},
		{"fig4 -rounds 7", func(j *job) { j.opts.Rounds = 7 }},
		{"table3 -eval-every 5 -rounds 20", func(j *job) { j.opts.ExecEvalEvery, j.opts.Rounds = 5, 20 }},
		{"fig5 -eval-every 2", func(j *job) { j.opts.ExecEvalEvery = 2 }},
		{"overhead -seed 4", func(j *job) { j.opts.Seed = 4 }},
		{"governors -steps 10", func(j *job) { j.opts.StepsPerRound = 10 }},
		{"hetero -parallel 1", func(j *job) { j.opts.Parallelism = 1 }},
		{"privacy -seed 2", func(j *job) { j.opts.Seed = 2 }},
		{"multicore -rounds 4", func(j *job) { j.opts.Rounds = 4 }},
		{"trace", func(j *job) { j.app, j.format = "fft", "csv" }},
		{"trace -app lu -format jsonl -rounds 5", func(j *job) { j.app, j.format, j.opts.Rounds = "lu", "jsonl", 5 }},
		{"sweep", func(j *job) { j.dim = "lr" }},
		{"sweep -dim tau -steps 20", func(j *job) { j.dim, j.opts.StepsPerRound = "tau", 20 }},
		{"replicate", func(j *job) { j.n = 5 }},
		{"replicate -n 3 -seed 8", func(j *job) { j.n, j.opts.Seed = 3, 8 }},
		{"resilience", resilienceDefaults},
		// An explicit -rounds equal to the experiments' default is honoured.
		{"resilience -rounds 100", func(j *job) { resilienceDefaults(j); j.res.Options.Rounds = 100 }},
		{"resilience -drop-rate 0.03 -truncate-rate 0.01 -quorum 2 -fault-seed 3 -codec delta -seed 5 -steps 40", func(j *job) {
			resilienceDefaults(j)
			j.res.Faults.DropRate, j.res.Faults.TruncateRate = 0.03, 0.01
			j.res.Quorum, j.res.FaultSeed, j.res.Codec = 2, 3, fedpower.DeltaCodec()
			j.res.Options.Seed, j.res.Options.StepsPerRound = 5, 40
		}},
		{"tree", treeDefaults},
		{"tree -rounds 100", func(j *job) { treeDefaults(j); j.treeOpts.Rounds = 100 }},
		{"tree -topology 1x48 -parallel 4 -rounds 2 -codec quant8 -seed 3", func(j *job) {
			treeDefaults(j)
			j.topologies, j.treeOpts.Parallelism, j.treeOpts.Rounds, j.treeOpts.Seed = "1x48", 4, 2, 3
			j.treeOpts.Codec, _ = fedpower.ParseCodec("quant8")
		}},
		{"verify -rounds 50 -eval-every 5", func(j *job) { j.opts.Rounds, j.opts.ExecEvalEvery = 50, 5 }},
		{"convergence -seed 3", func(j *job) { j.opts.Seed = 3 }},
		{"apps", func(j *job) {}},
		{"platform -cpuprofile p", func(j *job) { j.cpuProfile = "p" }},
		{"all -rounds 30 -eval-every 3 -csv x", func(j *job) { j.opts.Rounds, j.opts.ExecEvalEvery, j.csvDir = 30, 3, "x" }},
		{"serve", serveDefaults},
		{"serve -addr :7070 -devices 4 -rounds 10 -seed 2 -quorum 3 -round-timeout 60s -write-timeout 5s -join-timeout 0 -parallel 2 -out m.txt -model m.fpm -codec quant16", func(j *job) {
			serveDefaults(j)
			n := &j.node
			n.addr, n.devices, n.rounds, n.seed, n.quorum = ":7070", 4, 10, 2, 3
			n.roundTimeout, n.writeTimeout, n.joinTimeout, n.parallel = time.Minute, 5*time.Second, 0, 2
			n.out, n.model = "m.txt", "m.fpm"
			n.codec, _ = fedpower.ParseCodec("quant16")
		}},
		{"relay", relayDefaults},
		{"relay -addr :7071 -parent localhost:7070 -parent-fallbacks a:1,b:2 -id 10002 -devices 8 -quorum 1", func(j *job) {
			relayDefaults(j)
			n := &j.node
			n.addr, n.parent, n.fallbacks, n.id, n.devices, n.quorum = ":7071", "localhost:7070", "a:1,b:2", 10002, 8, 1
		}},
		{"relay -id 4294967295", func(j *job) { relayDefaults(j); j.node.id = 1<<32 - 1 }},
		{"device", deviceDefaults},
		{"device -server h:1 -id 2 -apps ocean,radix -steps 50 -interval 0.25 -seed 8 -retries 6 -retry-base 1s -retry-max 9s -save f.fpm -codec delta", func(j *job) {
			deviceDefaults(j)
			j.part.Addr, j.part.ID, j.trainApps, j.save, j.part.Codec = "h:1", 2, "ocean,radix", "f.fpm", fedpower.DeltaCodec()
			j.opts.StepsPerRound, j.opts.IntervalS, j.opts.Seed = 50, 0.25, 8
			j.part.Retry = fedpower.Backoff{Attempts: 6, Base: time.Second, Max: 9 * time.Second}
		}},
	}
	covered := make(map[string]bool)
	for _, tc := range cases {
		c, got, err := parse(strings.Fields(tc.args), io.Discard, io.Discard)
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		covered[c.name] = true
		got.out, got.log = nil, nil
		want := defaults()
		tc.want(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.args, *got, *want)
		}
	}
	for _, c := range commands {
		if !covered[c.name] {
			t.Errorf("command %s has no flag-table case", c.name)
		}
	}
}

// TestUsageErrors checks that a flag a command does not read, a flag before
// the command and an out-of-range value are usage errors (exit 2).
func TestUsageErrors(t *testing.T) {
	for _, args := range []string{
		"",
		"nope",
		"-rounds 100 resilience",
		"fig2 -rounds 5",
		"fig3 -drop-rate 0.1",
		"fig3 -quick",
		"fig3 extra",
		"apps -seed 3",
		"overhead -rounds 3",
		"resilience -parallel 2",
		"tree -steps 5",
		"tree -codec zip",
		"serve -parent localhost:7070",
		"relay -rounds 3",
		"relay -id 4294967296",
		"device -addr :7070",
		"device -id 4294967297",
		"device -id -1",
	} {
		var stderr bytes.Buffer
		err := run(strings.Fields(args), io.Discard, &stderr)
		if !errors.Is(err, errUsage) {
			t.Errorf("%q: err = %v, want a usage error", args, err)
		}
		if !strings.Contains(stderr.String(), "Usage: fedpower") {
			t.Errorf("%q: no usage text on stderr:\n%s", args, stderr.String())
		}
	}
}

// docCommand finds every `go run ./cmd/fedpower …` command line in a
// document; a line ends at a shell comment, a background `&`, a pipe or a
// closing backtick.
var docCommand = regexp.MustCompile("go run \\./cmd/fedpower([^#&|`\n]*)")

// TestDocumentedCommandLines parses every command line the docs tell people
// to run, and runs the cheap ones with -rounds 2.
func TestDocumentedCommandLines(t *testing.T) {
	// The verify recipe lives in a hidden tool directory at the root.
	recipe, err := filepath.Glob("../../.*/skills/verify/SKILL.md")
	if err != nil || len(recipe) != 1 {
		t.Fatalf("verify recipe: %v %v", recipe, err)
	}
	var lines []string
	for _, doc := range append([]string{"../../README.md", "../../EXPERIMENTS.md", "../../scripts/check.sh"}, recipe...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := docCommand.FindAllStringSubmatch(string(text), -1)
		if len(found) == 0 {
			t.Errorf("%s: no fedpower command lines", doc)
		}
		for _, m := range found {
			lines = append(lines, strings.TrimSpace(m[1]))
		}
	}
	if len(lines) < 30 {
		t.Fatalf("found %d documented command lines, want at least 30", len(lines))
	}
	seen := make(map[string]bool)
	for _, line := range lines {
		if seen[line] {
			continue
		}
		seen[line] = true
		args := strings.Fields(line)
		c, j, err := parse(args, io.Discard, io.Discard)
		if err != nil {
			t.Errorf("%q does not parse: %v", line, err)
			continue
		}
		// verify's checks need the full budget; serve, relay and device
		// need peers; profiles and CSV files would land in the tree.
		switch {
		case c.name == "verify", c.name == "serve", c.name == "relay", c.name == "device":
			continue
		case j.cpuProfile != "", j.memProfile != "", j.csvDir != "":
			continue
		}
		cheap := append(args, "-rounds", "2")
		if _, _, err := parse(cheap, io.Discard, io.Discard); err != nil {
			continue // the command has no -rounds
		}
		t.Run(line, func(t *testing.T) {
			t.Parallel()
			var stderr bytes.Buffer
			if err := run(cheap, io.Discard, &stderr); err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
		})
	}
}

// logWriter is a command's stderr in a test: it keeps the log and hands
// over the address the command reports as "listening on <addr>".
type logWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

func newLogWriter() *logWriter { return &logWriter{addr: make(chan string, 1)} }

func (w *logWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, rest, ok := strings.Cut(string(p), "listening on "); ok {
		w.addr <- strings.Fields(rest)[0]
	}
	return w.buf.Write(p)
}

func (w *logWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// process is one command running in the background.
type process struct {
	out  bytes.Buffer
	log  *logWriter
	done chan error
}

func start(args ...string) *process {
	p := &process{log: newLogWriter(), done: make(chan error, 1)}
	go func() { p.done <- run(args, &p.out, p.log) }()
	return p
}

// listening waits for the address a serve or relay process listens on.
func (p *process) listening(t *testing.T) string {
	t.Helper()
	select {
	case addr := <-p.log.addr:
		return addr
	case err := <-p.done:
		t.Fatalf("exited before listening: %v\n%s", err, p.log)
	case <-time.After(30 * time.Second):
		t.Fatalf("not listening after 30 s:\n%s", p.log)
	}
	return ""
}

// wait waits for the process to exit and fails the test on an error.
func (p *process) wait(t *testing.T) {
	t.Helper()
	select {
	case err := <-p.done:
		if err != nil {
			t.Fatalf("%v\n%s", err, p.log)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("still running after 60 s:\n%s", p.log)
	}
}

const rounds = 3

// devices runs the two devices of the loopback federations against addr
// and checks each one's transfer bytes: R dense model messages sent, R+1
// received (the initial broadcast and one per round).
func devices(t *testing.T, addr string) {
	t.Helper()
	ds := []*process{
		start("device", "-server", addr, "-id", "1", "-apps", "water-ns,water-sp", "-seed", "7"),
		start("device", "-server", addr, "-id", "2", "-apps", "ocean,radix", "-seed", "8"),
	}
	msg := fedpower.TransferSize(687)
	want := fmt.Sprintf("%d B sent, %d B received", rounds*msg, (rounds+1)*msg)
	for _, d := range ds {
		d.wait(t)
		if !strings.Contains(d.log.String(), want) {
			t.Errorf("device log lacks %q:\n%s", want, d.log)
		}
	}
}

// TestDeviceStreamsKeyedOnID: fedpower device keys its random streams on
// (-seed, -id), so two devices that share a seed but not an ID send
// different first-round updates, and one (seed, id) reproduces its update
// bit for bit.
func TestDeviceStreamsKeyedOnID(t *testing.T) {
	update := func(id string) []uint64 {
		t.Helper()
		_, j, err := parse([]string{"device", "-seed", "7", "-id", id}, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		train, err := j.deviceTrainer()
		if err != nil {
			t.Fatal(err)
		}
		global := fedpower.NewController(j.opts.Core, rand.New(rand.NewSource(1))).ModelParams()
		params, err := train(1, global)
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]uint64, len(params))
		for i, p := range params {
			bits[i] = math.Float64bits(p)
		}
		return bits
	}
	one, two := update("1"), update("2")
	if slices.Equal(one, two) {
		t.Error("devices -id 1 and -id 2 under -seed 7 sent the same first-round update")
	}
	if again := update("1"); !slices.Equal(one, again) {
		t.Error("device -seed 7 -id 1 did not reproduce its first-round update")
	}
}

// deviceUpdatesGolden are the SHA-256 hashes of the little-endian float64
// bits of the first three updates `fedpower device -seed 7 -id 1` sends,
// each round starting from the device's own previous update and the first
// from serve's initial model.
var deviceUpdatesGolden = []string{
	"434f24161934aa6c6b7da3eb86807b70c7ca1ac57577e040d47c2086b2c302cc",
	"be4ae2e22f4549e0d42685c3882bbedacfd5a17639b71553c6537bc4ccc07151",
	"19e18f24ffd22bc31ae0acb0b1b6297bfc5bd7ec96f86a8043e411d627bdb5f7",
}

// TestDeviceUpdatesGolden pins the deployed device's trajectory: any
// change to the order or count of the steps in its control interval, or to
// the streams it draws from, changes these updates.
func TestDeviceUpdatesGolden(t *testing.T) {
	_, j, err := parse([]string{"device", "-seed", "7", "-id", "1"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	train, err := j.deviceTrainer()
	if err != nil {
		t.Fatal(err)
	}
	global := fedpower.NewController(j.opts.Core, rand.New(rand.NewSource(1))).ModelParams()
	for r, want := range deviceUpdatesGolden {
		if global, err = train.TrainRound(r+1, global); err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 0, 8*len(global))
		for _, p := range global {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
			t.Errorf("update %d hashes to %s, want %s", r+1, got, want)
		}
	}
}

// TestDeploymentIsHarness runs serve and two devices in process over
// loopback and requires the final model serve writes to equal, byte for
// byte, the in-process federation of the experiments over two
// NeuralDevices with the same seed, ids, applications, codec and rounds:
// the deployed device is the device EXPERIMENTS.md measures.
func TestDeploymentIsHarness(t *testing.T) {
	srv := start("serve", "-addr", "127.0.0.1:0", "-devices", "2", "-rounds", fmt.Sprint(rounds))
	addr := srv.listening(t)
	ds := []*process{
		start("device", "-server", addr, "-id", "1", "-apps", "fft,lu", "-seed", "7"),
		start("device", "-server", addr, "-id", "2", "-apps", "fft,lu", "-seed", "7"),
	}
	for _, d := range ds {
		d.wait(t)
	}
	srv.wait(t)

	_, j, err := parse([]string{"device", "-seed", "7"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	apps := []fedpower.AppSpec{}
	for _, name := range []string{"fft", "lu"} {
		spec, err := fedpower.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, spec)
	}
	clients := []fedpower.FederatedClient{
		fedpower.NewNeuralDevice(j.opts, 1, apps),
		fedpower.NewNeuralDevice(j.opts, 2, apps),
	}
	global := fedpower.NewController(j.opts.Core, rand.New(rand.NewSource(1))).ModelParams()
	if err := fedpower.FederatedRunCodec(global, clients, rounds, 1, fedpower.DenseCodec(), nil); err != nil {
		t.Fatal(err)
	}
	parts := make([]string, len(global))
	for i, p := range global {
		parts[i] = strconv.FormatFloat(p, 'g', -1, 64)
	}
	if want := strings.Join(parts, ",") + "\n"; srv.out.String() != want {
		t.Errorf("serve over two devices wrote a different model than the in-process federation of their NeuralDevices")
	}
}

// TestServeAndRelay runs serve with two devices in process over loopback,
// then the same devices behind a relay, and checks that the root writes the
// same final model byte for byte.
func TestServeAndRelay(t *testing.T) {
	flat := start("serve", "-addr", "127.0.0.1:0", "-devices", "2", "-rounds", fmt.Sprint(rounds))
	devices(t, flat.listening(t))
	flat.wait(t)
	if n := strings.Count(flat.out.String(), ","); n != 686 {
		t.Fatalf("serve wrote %d commas, want a 687-parameter model", n)
	}

	root := start("serve", "-addr", "127.0.0.1:0", "-devices", "1", "-rounds", fmt.Sprint(rounds))
	relay := start("relay", "-addr", "127.0.0.1:0", "-parent", root.listening(t), "-devices", "2")
	devices(t, relay.listening(t))
	relay.wait(t)
	root.wait(t)
	if root.out.String() != flat.out.String() {
		t.Errorf("root over a relay wrote a different model than the flat server")
	}
}

// TestResilienceFixedSeed pins what the documented resilience run
// guarantees whatever the timing: device 1 never faults and commits all 20
// rounds, device 2's connection is dropped by an injected fault, and every
// drop is a fault and every rejoin a drop. Whether device 2's backoff
// expires before the last round is timing: when it rejoins, its seeded
// injector keeps drawing, so the fault, drop and rejoin counts read 1/1/0
// on a fast run and 2/2/1 on a slow one.
func TestResilienceFixedSeed(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("resilience -drop-rate 0.03 -fault-seed 3"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"Rounds completed              20 / 20 ",
		"device 1: last round 20, 0 reconnects, 55140 B sent — completed",
		"all rounds committed despite the injected faults",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	var faults, drops, rejoins int
	m := regexp.MustCompile(`Injected faults +(\d+) [^\n]*\nServer drops / rejoins +(\d+) / (\d+) `).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no fault counts in:\n%s", text)
	}
	fmt.Sscan(m[1]+" "+m[2]+" "+m[3], &faults, &drops, &rejoins)
	if drops < 1 || drops > faults || rejoins > drops {
		t.Errorf("faults %d, drops %d, rejoins %d: want 1 <= drops <= faults and rejoins <= drops", faults, drops, rejoins)
	}
}

// TestStdoutDeterministic runs fig3 twice: stdout carries results only, so
// the two runs are byte-identical.
func TestStdoutDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		if err := run(strings.Fields("fig3 -rounds 3 -parallel 2"), &outs[i], io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Errorf("fig3 stdout differs between runs:\n%s\n---\n%s", outs[0].String(), outs[1].String())
	}
}
