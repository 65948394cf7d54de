package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// effectmodSuite is the analyzer set the testdata/effectmod fixture module
// exercises: the three effect analyzers, with the slotrace fan-out point
// retargeted at the fixture's own par package.
func effectmodSuite() []Analyzer {
	return []Analyzer{
		AllocFree{},
		MapOrder{},
		SlotRace{ForEach: []string{"effectmod/par.ForEach", "effectmod/par.NewPool"}},
	}
}

func loadEffectmod(t *testing.T) (root string, pkgs []*Package) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "effectmod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err = LoadModule(root)
	if err != nil {
		t.Fatalf("load fixture module: %v", err)
	}
	if len(pkgs) < 4 {
		t.Fatalf("loaded only %d fixture packages, want 4", len(pkgs))
	}
	return root, pkgs
}

// TestEffectAnalyzersGolden pins the three effect analyzers' full output —
// every hop of every path — over the effectmod fixture module. The fixture
// plants: an //fedlint:allocfree root whose allocation hides three calls
// deep next to a capacity-guarded clean root and a dangling directive; a
// map range feeding a float fold and a returned slice next to
// sort-then-range counterparts; ForEach tasks writing a shared counter
// directly and through a helper next to an own-slot counterpart; and an
// ignore directive naming an analyzer that does not exist. Regenerate with
// `go test -run EffectAnalyzersGolden -update ./internal/lint`.
func TestEffectAnalyzersGolden(t *testing.T) {
	root, pkgs := loadEffectmod(t)
	diags := Run(pkgs, effectmodSuite())

	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	got := strings.ReplaceAll(b.String(), root+string(filepath.Separator), "")

	goldenPath := filepath.Join("testdata", "effect.golden")
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
		t.Errorf("effect analyzer output drifted from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEffectFixtureShape asserts the semantic content of the fixture run
// independently of exact positions: every planted violation fires in its
// file, every clean counterpart stays silent, and the interprocedural
// findings carry their call-chain paths.
func TestEffectFixtureShape(t *testing.T) {
	_, pkgs := loadEffectmod(t)
	diags := Run(pkgs, effectmodSuite())

	byFile := make(map[string]map[string]int) // base file -> analyzer -> count
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		if byFile[base] == nil {
			byFile[base] = make(map[string]int)
		}
		byFile[base][d.Analyzer]++
	}

	// hotpath.go: the failed proof (with its three-call chain), the
	// dangling directive, and the unknown-analyzer ignore.
	if n := byFile["hotpath.go"]["allocfree"]; n != 2 {
		t.Errorf("hotpath.go allocfree findings = %d, want 2 (failed proof + dangling directive)", n)
	}
	if n := byFile["hotpath.go"]["unusedignore"]; n != 1 {
		t.Errorf("hotpath.go unusedignore findings = %d, want 1 (unknown analyzer name)", n)
	}
	// agg.go: float fold and returned slice; sorted counterparts silent.
	if n := byFile["agg.go"]["maporder"]; n != 2 {
		t.Errorf("agg.go maporder findings = %d, want 2 (float fold + returned slice)", n)
	}
	// fan.go: direct shared write, the helper-hidden one, and the
	// persistent-pool task bound to a shared accumulator.
	if n := byFile["fan.go"]["slotrace"]; n != 3 {
		t.Errorf("fan.go slotrace findings = %d, want 3 (direct write + via helper + pooled task)", n)
	}
	if n := byFile["par.go"]; len(n) != 0 {
		t.Errorf("fixture pool package flagged: %v", n)
	}

	for _, d := range diags {
		switch {
		case d.Analyzer == "allocfree" && strings.Contains(d.Message, "heap allocation"):
			// Root → level1 → level2 → push → append: the chain must walk
			// all three calls before landing on the allocation site.
			if len(d.Path) < 4 {
				t.Errorf("allocfree path too short (%d hops), want the full 3-call chain: %s", len(d.Path), d)
			}
		case d.Analyzer == "maporder":
			if len(d.Path) == 0 {
				t.Errorf("maporder finding without a flow path: %s", d)
			}
		case d.Analyzer == "slotrace" && strings.Contains(d.Message, "bump"):
			if len(d.Path) < 2 {
				t.Errorf("interprocedural slotrace finding lost its effect chain: %s", d)
			}
		}
		for _, clean := range []string{"FillInto", "SortedKeys", "MeanSorted", "ScaleOwnSlot", "ScalePooledOwnSlot"} {
			if strings.Contains(d.Message, clean) {
				t.Errorf("clean counterpart %s flagged: %s", clean, d)
			}
		}
	}
}

// TestEffectRealModuleClean is the theorem the analyzers exist to prove:
// the actual fedpower module is clean under all three — every annotated
// hot path is allocation-free, every map fold is sorted, every ForEach
// task writes only its own slot — with zero //fedlint:ignore escapes.
func TestEffectRealModuleClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(wd)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	mod := NewModule(pkgs)

	// The theorem must not be vacuous: the hot-path roots and the fan-out
	// point must resolve.
	roots, _, dangling := collectAllocFreeRoots(mod)
	if len(roots) < 9 {
		t.Errorf("only %d //fedlint:allocfree roots found, want the 9 annotated hot paths", len(roots))
	}
	if len(dangling) != 0 {
		t.Errorf("dangling //fedlint:allocfree directives at %v", dangling)
	}
	// The policy update and the optimiser step inside it are roots of their
	// own: the proof of Adam.Step must not depend on Update's interface call
	// resolving to it. So is the single-sample inference every control
	// interval starts with, the greedy decision's whole cost.
	for _, want := range []string{
		"(*fedpower/internal/core.Controller).Update",
		"(*fedpower/internal/nn.Adam).Step",
		"(*fedpower/internal/nn.Network).Forward",
	} {
		found := false
		for _, r := range roots {
			found = found || r.fn.FullName() == want
		}
		if !found {
			t.Errorf("%s is not an //fedlint:allocfree root", want)
		}
	}

	suite := []Analyzer{
		AllocFree{},
		MapOrder{},
		SlotRace{ForEach: DefaultSlotRaceConfig()},
	}
	for _, a := range suite {
		ma := a.(ModuleAnalyzer)
		for _, d := range ma.CheckModule(mod) {
			t.Errorf("real module not clean under %s:\n%s", a.Name(), d)
		}
	}
}

// TestAllocFreeBodylessFixture: over the asmmod fixture, allocfree reports
// each call from an //fedlint:allocfree root to an in-module function
// declared without a Go body that does not assert //fedlint:allocfree
// itself — directly and two calls down, each with its call chain — and
// stays silent on the asserted kernel, the foreign callee and the
// unreached declaration. The annotated body-less declaration is an
// assertion, not a dangling directive.
func TestAllocFreeBodylessFixture(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "asmmod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load fixture module: %v", err)
	}
	var got []string
	for _, d := range Run(pkgs, []Analyzer{AllocFree{}}) {
		rel := strings.ReplaceAll(d.String(), root+string(filepath.Separator), "")
		got = append(got, rel)
		if d.Analyzer != "allocfree" || !strings.Contains(d.Message, "has no Go body") {
			t.Errorf("unexpected finding: %s", rel)
		}
	}
	want := []string{
		"kernel/kernel.go:16:8: allocfree: asmmod/kernel.addAsm has no Go body to prove allocation-free and is reachable from //fedlint:allocfree root asmmod/kernel.Scale; assert it with //fedlint:allocfree on its declaration (1-hop path below)\n" +
			"    [1] kernel/kernel.go:16:8: calls asmmod/kernel.addAsm, declared without a Go body",
		"kernel/kernel.go:21:8: allocfree: asmmod/kernel.mulAsm has no Go body to prove allocation-free and is reachable from //fedlint:allocfree root asmmod/kernel.Scale; assert it with //fedlint:allocfree on its declaration (2-hop path below)\n" +
			"    [1] kernel/kernel.go:17:8: calls asmmod/kernel.helper\n" +
			"    [2] kernel/kernel.go:21:8: calls asmmod/kernel.mulAsm, declared without a Go body",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
