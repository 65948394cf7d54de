package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current analyzer output")

// privacymodConfig is the taint boundary of the testdata/privacymod fixture
// module, mirroring DefaultPrivacyConfig's shape: sensor.Observation is the
// telemetry, wire.Send the wire, (*model.Model).Params the declassifier.
func privacymodConfig() TaintConfig {
	return TaintConfig{
		SourceTypes:    []string{"privacymod/sensor.Observation"},
		SourceFuncs:    []string{"(*privacymod/sensor.Meter).Read"},
		SinkFuncs:      []string{"privacymod/wire.Send"},
		WriterSinkPkgs: []string{"privacymod/wire"},
		Allow:          []string{"(*privacymod/model.Model).Params"},
	}
}

func loadPrivacymod(t *testing.T) (root string, pkgs []*Package) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "privacymod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err = LoadModule(root)
	if err != nil {
		t.Fatalf("load fixture module: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("loaded only %d fixture packages, want 5", len(pkgs))
	}
	return root, pkgs
}

// TestPrivacyTaintGolden pins the analyzer's full output — including every
// hop of every source → sink path — over the privacymod fixture module. The
// fixture plants a direct leak, a leak through a helper call and a leak
// through struct embedding, next to a clean train-then-ship-params round
// that must stay silent. Regenerate with `go test -run PrivacyTaintGolden
// -update ./internal/lint`.
func TestPrivacyTaintGolden(t *testing.T) {
	root, pkgs := loadPrivacymod(t)
	diags := Run(pkgs, []Analyzer{PrivacyTaint{Config: privacymodConfig()}})

	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	// Relativize absolute fixture paths so the golden file is stable across
	// checkouts.
	got := strings.ReplaceAll(b.String(), root+string(filepath.Separator), "")

	goldenPath := filepath.Join("testdata", "privacytaint.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("privacytaint output drifted from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrivacyTaintFixtureShape asserts the semantic content of the fixture
// run independently of exact positions: all three planted leaks are found
// at their wire.Send call sites with non-empty paths, and nothing in the
// clean package fires.
func TestPrivacyTaintFixtureShape(t *testing.T) {
	_, pkgs := loadPrivacymod(t)
	diags := Run(pkgs, []Analyzer{PrivacyTaint{Config: privacymodConfig()}})

	leakLines := make(map[int]bool)
	for _, d := range diags {
		if d.Analyzer != "privacytaint" {
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
			continue
		}
		base := filepath.Base(d.Pos.Filename)
		if base == "clean.go" {
			t.Errorf("sanctioned parameter flow flagged: %s", d)
		}
		if base != "leak.go" && base != "wire.go" {
			t.Errorf("finding outside the planted-leak packages: %s", d)
		}
		if len(d.Path) == 0 {
			t.Errorf("finding without a flow path: %s", d)
		}
		if base == "leak.go" {
			leakLines[d.Pos.Line] = true
		}
	}
	// The three wire.Send call sites in leak.go: Direct, Helper, Embedded.
	for _, line := range []int{16, 22, 38} {
		if !leakLines[line] {
			t.Errorf("planted leak at leak.go:%d not reported; got findings at lines %v", line, leakLines)
		}
	}
}

// TestPrivacyTaintRealModuleClean is the theorem the analyzer exists to
// prove: the actual fedpower module has zero privacytaint findings under
// the default config — the sanctioned (*nn.Network).Params flow needs no
// //fedlint:ignore. (TestRepositoryIsLintClean also covers this via
// DefaultSuite; this test keeps the privacy claim independently named.)
func TestPrivacyTaintRealModuleClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(wd)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	mod := NewModule(pkgs)

	// Every config spec must resolve — otherwise the theorem is vacuous.
	cfg := DefaultPrivacyConfig()
	if _, unresolved := cfg.resolve(mod); len(unresolved) != 0 {
		t.Fatalf("default privacy config has dangling specs %v; the privacy boundary drifted", unresolved)
	}

	diags := PrivacyTaint{Config: cfg}.CheckModule(mod)
	for _, d := range diags {
		t.Errorf("raw telemetry reaches the wire in the real module:\n%s", d)
	}
}

// relayPlant is a file planted into a copy of internal/fed by
// TestPrivacyTaintRelayedParamSum: telemetry summed into a ParamSum that
// then leaves as a relay frame's payload, once through the message field
// and once through the sum's own wire encoding.
const relayPlant = `package fed

import (
	"bufio"

	"fedpower/internal/nn"
	"fedpower/internal/sim"
)

func plantedRelayFrame(d *sim.Device, cs *codecState, w *bufio.Writer) {
	s := nn.NewParamSum(1)
	s.Add([]float64{d.Step(0.1).PowerW})
	_, _ = cs.writeMessage(w, message{kind: msgRelay, round: 1, leaves: 1, sum: s})
}

func plantedRelayBlock(d *sim.Device) []byte {
	s := nn.NewParamSum(1)
	s.Add([]float64{d.Stats().EnergyJ})
	return s.AppendWire(nil)
}
`

// TestPrivacyTaintRelayedParamSum shows the default boundary still covers
// the relay payload: in a copy of the packages internal/fed builds on,
// with relayPlant added, both planted flows from telemetry into a relayed
// ParamSum are findings at the plant — one at the message field, one at
// the sum's encoder, whose receiver is its payload. (The analysis is
// context-insensitive, so the tainted frame also lights up the fed code
// it passes through; those findings are not asserted.)
func TestPrivacyTaintRelayedParamSum(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := filepath.Join(wd, "..", ".."), t.TempDir()
	if err := os.WriteFile(filepath.Join(dst, "go.mod"), []byte("module fedpower\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"fed", "nn", "par", "sim", "trace"} {
		dir := filepath.Join("internal", pkg)
		if err := os.MkdirAll(filepath.Join(dst, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(src, dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, dir, filepath.Base(f)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	plant := filepath.Join(dst, "internal", "fed", "relay_plant.go")
	if err := os.WriteFile(plant, []byte(relayPlant), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(dst)
	if err != nil {
		t.Fatalf("load planted module: %v", err)
	}
	found := make(map[int]string)
	for _, d := range (PrivacyTaint{Config: DefaultPrivacyConfig()}).CheckModule(NewModule(pkgs)) {
		if d.Pos.Filename == plant {
			found[d.Pos.Line] += d.Message
		}
	}
	for _, want := range []struct {
		line int
		sink string
	}{
		{13, "wire payload field sum"},                                  // plantedRelayFrame's message
		{19, "argument to (*fedpower/internal/nn.ParamSum).AppendWire"}, // plantedRelayBlock's encode
	} {
		if !strings.Contains(found[want.line], want.sink) {
			t.Errorf("planted relay leak at line %d into %q not reported; plant findings: %v", want.line, want.sink, found)
		}
	}
}

// TestPrivacyTaintUnresolvedSpecIsFinding guards against a silently vacuous
// analysis: on a multi-package module, a config spec naming a type or
// function that no longer exists is itself reported.
func TestPrivacyTaintUnresolvedSpecIsFinding(t *testing.T) {
	_, pkgs := loadPrivacymod(t)
	cfg := privacymodConfig()
	cfg.SourceTypes = append(cfg.SourceTypes, "privacymod/sensor.Renamed")
	diags := PrivacyTaint{Config: cfg}.CheckModule(NewModule(pkgs))

	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, `"privacymod/sensor.Renamed"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("dangling config spec not reported; got %d diagnostics", len(diags))
	}
}

// --- single-package unit fixtures -----------------------------------------

// unitConfig taints type T and sinks Ship's argument within one package.
func unitConfig(path string) TaintConfig {
	return TaintConfig{
		SourceTypes: []string{path + ".T"},
		SinkFuncs:   []string{path + ".Ship"},
		Allow:       []string{path + ".Declassify"},
	}
}

func TestTaintDirectFlow(t *testing.T) {
	src := `package p

type T struct{ V float64 }

func Ship(vs []float64) {}

func Leak(t T) {
	Ship([]float64{t.V})
}
`
	diags := runOn(t, PrivacyTaint{Config: unitConfig("unit/p")}, "unit/p", src)
	wantFindings(t, diags, "privacytaint", 8)
}

func TestTaintAllowlistBarrier(t *testing.T) {
	src := `package p

type T struct{ V float64 }

func Ship(vs []float64) {}

// Declassify derives clean data from telemetry; allowlisted by the config.
func Declassify(t T) []float64 {
	return []float64{t.V}
}

func Fine(t T) {
	Ship(Declassify(t))
}
`
	diags := runOn(t, PrivacyTaint{Config: unitConfig("unit/p")}, "unit/p", src)
	wantFindings(t, diags, "privacytaint")
}

func TestTaintChannelAndRangeFlow(t *testing.T) {
	src := `package p

type T struct{ V float64 }

func Ship(vs []float64) {}

func Leak(in T) {
	ch := make(chan float64, 1)
	ch <- in.V
	var vs []float64
	for v := range ch {
		vs = append(vs, v)
		break
	}
	Ship(vs)
}
`
	diags := runOn(t, PrivacyTaint{Config: unitConfig("unit/p")}, "unit/p", src)
	wantFindings(t, diags, "privacytaint", 15)
}

func TestTaintInterfaceDispatch(t *testing.T) {
	src := `package p

type T struct{ V float64 }

func Ship(vs []float64) {}

type flattener interface{ Flatten(T) []float64 }

type impl struct{}

func (impl) Flatten(t T) []float64 { return []float64{t.V} }

func Leak(f flattener, t T) {
	Ship(f.Flatten(t))
}
`
	diags := runOn(t, PrivacyTaint{Config: unitConfig("unit/p")}, "unit/p", src)
	wantFindings(t, diags, "privacytaint", 14)
}

func TestTaintIgnoreDirective(t *testing.T) {
	src := `package p

type T struct{ V float64 }

func Ship(vs []float64) {}

func Leak(t T) {
	//fedlint:ignore privacytaint deliberate fixture leak
	Ship([]float64{t.V})
}
`
	diags := runOn(t, PrivacyTaint{Config: unitConfig("unit/p")}, "unit/p", src)
	wantFindings(t, diags, "privacytaint")
}

func TestTaintStdlibPassThrough(t *testing.T) {
	// Telemetry laundered through a stdlib call (append is a builtin,
	// strconv-style foreign calls pass through conservatively).
	src := `package p

import "math"

type T struct{ V float64 }

func Ship(vs []float64) {}

func Leak(t T) {
	v := math.Abs(t.V)
	Ship([]float64{v})
}
`
	diags := runOn(t, PrivacyTaint{Config: unitConfig("unit/p")}, "unit/p", src)
	wantFindings(t, diags, "privacytaint", 11)
}
