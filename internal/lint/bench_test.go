package lint

import (
	"os"
	"testing"
)

// BenchmarkDefaultSuite measures one full analyzer-suite pass over the real
// module (parse/type-check excluded — LoadModule runs outside the timer).
// This is the number the CI wall-clock budget in scripts/check.sh guards:
// the interprocedural taint pass must stay cheap enough to run on every
// test invocation.
func BenchmarkDefaultSuite(b *testing.B) {
	wd, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := LoadModule(wd)
	if err != nil {
		b.Fatalf("load module: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(pkgs, DefaultSuite()); len(diags) != 0 {
			b.Fatalf("module not lint-clean during benchmark: %d findings", len(diags))
		}
	}
}

// BenchmarkPrivacyTaint isolates the interprocedural layer: module index
// construction plus taint-graph build and search.
func BenchmarkPrivacyTaint(b *testing.B) {
	wd, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := LoadModule(wd)
	if err != nil {
		b.Fatalf("load module: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod := NewModule(pkgs)
		if diags := (PrivacyTaint{Config: DefaultPrivacyConfig()}).CheckModule(mod); len(diags) != 0 {
			b.Fatalf("module not taint-clean during benchmark: %d findings", len(diags))
		}
	}
}

// BenchmarkWireBound isolates the interval-bounds layer: module index
// construction plus the hostile-integer fixpoint over every function body
// and the final reporting sweep — the decode-surface proof must stay cheap
// enough to run on every test invocation (`make bench-lint` prints it;
// what fails is check.sh's FEDLINT_BUDGET).
func BenchmarkWireBound(b *testing.B) {
	wd, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := LoadModule(wd)
	if err != nil {
		b.Fatalf("load module: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod := NewModule(pkgs)
		if diags := (WireBound{Config: DefaultWireBoundConfig()}).CheckModule(mod); len(diags) != 0 {
			b.Fatalf("module not wirebound-clean during benchmark: %d findings", len(diags))
		}
	}
}

// BenchmarkEffectAnalysis isolates the effect-and-allocation layer added
// on top of the call graph: module index construction plus the allocfree
// proof, the maporder flow search and the slotrace write-effect pass — the
// static proofs must stay cheap enough to run on every test invocation.
func BenchmarkEffectAnalysis(b *testing.B) {
	wd, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := LoadModule(wd)
	if err != nil {
		b.Fatalf("load module: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod := NewModule(pkgs)
		n := 0
		n += len(AllocFree{}.CheckModule(mod))
		n += len(MapOrder{}.CheckModule(mod))
		n += len(SlotRace{ForEach: DefaultSlotRaceConfig()}.CheckModule(mod))
		if n != 0 {
			b.Fatalf("module not effect-clean during benchmark: %d findings", n)
		}
	}
}
