package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadFixture type-checks one synthetic source file under the given import
// path, mirroring exactly what LoadModule produces, so analyzer tests
// exercise the same code path as cmd/fedlint. Fixtures may import only the
// standard library.
func loadFixture(t *testing.T, importPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	tpkg, err := conf.Check(importPath, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Package{
		Path:  importPath,
		Fset:  fset,
		Files: []*ast.File{file},
		Types: tpkg,
		Info:  info,
	}
}

// runOn applies a single analyzer through the full Run pipeline (including
// ignore-directive filtering).
func runOn(t *testing.T, a Analyzer, importPath, src string) []Diagnostic {
	t.Helper()
	return Run([]*Package{loadFixture(t, importPath, src)}, []Analyzer{a})
}

// wantFindings asserts the diagnostics hit exactly the expected lines.
func wantFindings(t *testing.T, diags []Diagnostic, analyzer string, lines ...int) {
	t.Helper()
	if len(diags) != len(lines) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(lines), renderDiags(diags))
	}
	for i, d := range diags {
		if d.Analyzer != analyzer {
			t.Errorf("finding %d from analyzer %q, want %q", i, d.Analyzer, analyzer)
		}
		if d.Pos.Line != lines[i] {
			t.Errorf("finding %d at line %d, want %d: %s", i, d.Pos.Line, lines[i], d)
		}
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestNoRandFlagsGlobalSource(t *testing.T) {
	src := `package sim

import "math/rand"

func bad() int {
	rand.Seed(42)           // line 6: reseeding the global source
	x := rand.Intn(10)      // line 7: drawing from the global source
	_ = rand.Float64()      // line 8: drawing from the global source
	return x
}

func good(rng *rand.Rand) float64 {
	_ = rand.New(rand.NewSource(1)) // constructors are fine
	return rng.Float64()            // injected generator is fine
}
`
	wantFindings(t, runOn(t, NoRand{}, "fedpower/internal/sim", src), "norand", 6, 7, 8)
}

func TestNoRandHonorsIgnore(t *testing.T) {
	src := `package sim

import "math/rand"

func bad() int {
	//fedlint:ignore norand fixture documents a deliberate global draw
	return rand.Intn(10)
}
`
	if diags := runOn(t, NoRand{}, "fedpower/internal/sim", src); len(diags) != 0 {
		t.Fatalf("ignore directive not honoured:\n%s", renderDiags(diags))
	}
}

func TestNoClockFlagsWallClockInSimPackages(t *testing.T) {
	src := `package sim

import "time"

func bad() time.Duration {
	start := time.Now()     // line 6
	time.Sleep(time.Millisecond) // line 7
	return time.Since(start) // line 8
}

func good(now func() time.Time) time.Time {
	_ = time.Duration(5)  // pure conversion is fine
	clock := time.Now     // taking the func value is the injection seam
	_ = clock
	return now()
}
`
	wantFindings(t, runOn(t, NoClock{}, "fedpower/internal/sim", src), "noclock", 6, 7, 8)
}

func TestNoClockExemptsOtherPackages(t *testing.T) {
	src := `package fed

import "time"

func deadline() time.Time { return time.Now() }
`
	// internal/fed is a real TCP transport and may use deadlines.
	if diags := runOn(t, NoClock{}, "fedpower/internal/fed", src); len(diags) != 0 {
		t.Fatalf("noclock must exempt internal/fed:\n%s", renderDiags(diags))
	}
}

func TestNoClockHonorsIgnore(t *testing.T) {
	src := `package sim

import "time"

//fedlint:ignore noclock fixture documents a deliberate wall-clock read
func bad() time.Time { return time.Now() }
`
	if diags := runOn(t, NoClock{}, "fedpower/internal/sim", src); len(diags) != 0 {
		t.Fatalf("ignore directive not honoured:\n%s", renderDiags(diags))
	}
}

func TestWireErrFlagsDiscardedErrors(t *testing.T) {
	src := `package fed

import (
	"bufio"
	"os"
)

func bad(f *os.File, w *bufio.Writer) {
	f.Close()       // line 9
	w.Flush()       // line 10
	defer f.Close() // line 11
}

func good(f *os.File, w *bufio.Writer) error {
	if err := w.Flush(); err != nil {
		return err
	}
	_ = f.Close() // explicit blank assignment is a visible decision
	return nil
}
`
	wantFindings(t, runOn(t, WireErr{}, "fedpower/internal/fed", src), "wireerr", 9, 10, 11)
}

func TestWireErrExemptsNeverFailingWriters(t *testing.T) {
	src := `package fed

import (
	"bytes"
	"strings"
)

func good(b *bytes.Buffer, sb *strings.Builder) {
	b.Write([]byte("x"))  // bytes.Buffer.Write never returns an error
	sb.WriteString("x")   // strings.Builder likewise
}
`
	if diags := runOn(t, WireErr{}, "fedpower/internal/fed", src); len(diags) != 0 {
		t.Fatalf("never-failing writers must be exempt:\n%s", renderDiags(diags))
	}
}

func TestWireErrHonorsIgnore(t *testing.T) {
	src := `package fed

import "os"

func bad(f *os.File) {
	f.Close() //fedlint:ignore wireerr fixture documents a best-effort close
}
`
	if diags := runOn(t, WireErr{}, "fedpower/internal/fed", src); len(diags) != 0 {
		t.Fatalf("ignore directive not honoured:\n%s", renderDiags(diags))
	}
}

func TestFloatEqFlagsFloatComparison(t *testing.T) {
	src := `package core

func bad(a, b float64, c float32) bool {
	if a == b { // line 4
		return true
	}
	return float64(c) != a // line 7
}

func good(a, b float64, n, m int) bool {
	_ = n == m        // integer comparison is fine
	return a < b      // ordered float comparison is fine
}
`
	wantFindings(t, runOn(t, FloatEq{}, "fedpower/internal/core", src), "floateq", 4, 7)
}

func TestFloatEqHonorsIgnore(t *testing.T) {
	src := `package core

func guard(a float64) float64 {
	if a == 0 { //fedlint:ignore floateq exact zero guards the division below
		return 0
	}
	return 1 / a
}
`
	if diags := runOn(t, FloatEq{}, "fedpower/internal/core", src); len(diags) != 0 {
		t.Fatalf("ignore directive not honoured:\n%s", renderDiags(diags))
	}
}

func TestGoLaunchFlagsUnsupervisedAndCapturingGoroutines(t *testing.T) {
	src := `package fed

import "sync"

func bad(items []int) {
	for _, it := range items {
		go func() { // line 7: captures it AND unsupervised -> two findings
			_ = it
		}()
	}
}

func good(items []int) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, it := range items {
		wg.Add(1)
		go func(it int) { // loop state passed as argument
			defer wg.Done()
			_ = it
		}(it)
	}
	go func() { // done-channel supervision
		close(done)
	}()
	wg.Wait()
	<-done
}
`
	wantFindings(t, runOn(t, GoLaunch{}, "fedpower/internal/fed", src), "golaunch", 7, 7)
}

func TestGoLaunchExemptsCommands(t *testing.T) {
	src := `package main

func main() {
	go func() {}() // commands die with the process; out of scope
	select {}
}
`
	if diags := runOn(t, GoLaunch{}, "fedpower/cmd/fedpower", src); len(diags) != 0 {
		t.Fatalf("golaunch must exempt package main:\n%s", renderDiags(diags))
	}
}

func TestGoLaunchRecognizesPoolWorkers(t *testing.T) {
	// The worker-pool launch shape of internal/par: a fixed number of
	// workers pull indices from a shared atomic counter and signal
	// completion through the WaitGroup referenced in the body. The loop
	// variable is the worker slot, which the body never touches, so the
	// pattern passes both golaunch checks without any ignore directive.
	src := `package par

import (
	"sync"
	"sync/atomic"
)

func pool(width, n int, task func(i int) error) []error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	return errs
}
`
	if diags := runOn(t, GoLaunch{}, "fedpower/internal/par", src); len(diags) != 0 {
		t.Fatalf("golaunch must recognise supervised pool workers:\n%s", renderDiags(diags))
	}
}

func TestGoLaunchHonorsIgnore(t *testing.T) {
	src := `package fed

func bad() {
	//fedlint:ignore golaunch fixture documents a deliberate fire-and-forget worker
	go func() {}()
}
`
	if diags := runOn(t, GoLaunch{}, "fedpower/internal/fed", src); len(diags) != 0 {
		t.Fatalf("ignore directive not honoured:\n%s", renderDiags(diags))
	}
}

func TestIgnoreDirectiveScoping(t *testing.T) {
	// An ignore scoped to one analyzer must not suppress another.
	src := `package sim

import "time"

func bad() time.Time {
	//fedlint:ignore norand scoped to the wrong analyzer on purpose
	return time.Now()
}
`
	diags := runOn(t, NoClock{}, "fedpower/internal/sim", src)
	wantFindings(t, diags, "noclock", 7)
}

func TestParseIgnoreForms(t *testing.T) {
	cases := []struct {
		text     string
		ok       bool
		analyzer string // one analyzer that must be covered
		excluded string // one analyzer that must NOT be covered ("" = none)
	}{
		{"//fedlint:ignore", true, "norand", ""},
		{"//fedlint:ignore some free-form reason", true, "floateq", ""},
		{"//fedlint:ignore floateq exact zero guard", true, "floateq", "norand"},
		{"//fedlint:ignore norand,noclock both deliberate", true, "noclock", "wireerr"},
		{"//fedlint:ignorenothing", false, "", ""},
		{"// regular comment", false, "", ""},
	}
	for _, c := range cases {
		dir, ok := parseIgnore(c.text)
		if ok != c.ok {
			t.Errorf("parseIgnore(%q) ok=%v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if !dir.covers(c.analyzer) {
			t.Errorf("parseIgnore(%q) must cover %s", c.text, c.analyzer)
		}
		if c.excluded != "" && dir.covers(c.excluded) {
			t.Errorf("parseIgnore(%q) must not cover %s", c.text, c.excluded)
		}
	}
}

func TestUnusedIgnoreReported(t *testing.T) {
	// A directive whose analyzer runs but which suppresses nothing is
	// itself a finding: stale allowlists must not accumulate.
	src := `package sim

import "math/rand"

func ok(r *rand.Rand) int {
	//fedlint:ignore norand nothing on this line violates norand
	return r.Intn(10)
}
`
	diags := runOn(t, NoRand{}, "fedpower/internal/sim", src)
	wantFindings(t, diags, "unusedignore", 6)
}

func TestUnusedIgnoreSilentWhenAnalyzerNotRunning(t *testing.T) {
	// In a partial run (single analyzer), a directive naming an analyzer
	// that did not run may well be load-bearing — it must not be reported.
	src := `package sim

import "math/rand"

func ok(r *rand.Rand) int {
	//fedlint:ignore floateq covered only in full-suite runs
	return r.Intn(10)
}
`
	diags := runOn(t, NoRand{}, "fedpower/internal/sim", src)
	wantFindings(t, diags, "unusedignore")
}

func TestUsedIgnoreNotReported(t *testing.T) {
	src := `package sim

import "math/rand"

func bad() int {
	//fedlint:ignore norand deliberate for the test
	return rand.Intn(10)
}
`
	diags := runOn(t, NoRand{}, "fedpower/internal/sim", src)
	wantFindings(t, diags, "norand")
}
