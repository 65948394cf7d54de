package lint

import (
	"fmt"
	"go/types"
)

// AllocFree proves the repo's 0-alloc hot-path claim statically: every
// function annotated
//
//	//fedlint:allocfree
//
// in its doc comment — and every function statically reachable from it
// through the module call graph, including all in-module implementations
// behind interface dispatch — must be free of heap-allocating constructs:
// make/new, append (which may grow its backing array), closure creation,
// goroutine launches, string concatenation and string<->[]byte
// conversions, slice/map literals and escaping &T{...} literals, map
// writes, boxing into non-empty interfaces, variadic ...interface{}
// calls, fmt/log calls, and dynamic calls that cannot be resolved.
//
// Two shapes are exempt because they cannot run in the steady state the
// proof is about: allocations inside the arguments of the panic builtin
// (the invariant-violation path), and allocations inside an if branch
// whose condition consults len or cap (the amortized-growth and
// guarded-error patterns — allocate only when capacity is exhausted or
// input is malformed). Foreign (out-of-module) callees other than
// fmt/log are assumed allocation-free; the AllocFree tests beside each
// annotated root remain the dynamic backstop for those. An in-module
// function declared without a Go body (assembly) cannot be scanned, so
// reaching one is a finding unless its own declaration carries
// //fedlint:allocfree: an explicit claim, checked by reading the
// assembly beside it and then trusted like a foreign callee.
//
// Each finding carries the full call-chain path from the annotated root
// to the allocating expression, one position per hop, mirroring
// privacytaint's leak traces. A directive that is not attached to a
// function declaration the loader can resolve is itself a finding.
type AllocFree struct{}

func (AllocFree) Name() string { return "allocfree" }

func (AllocFree) Doc() string {
	return "functions annotated //fedlint:allocfree, and everything statically reachable from them, must not contain heap-allocating constructs (panic arguments and len/cap-guarded growth branches exempt)"
}

// Check analyzes a single package as a one-package module (unit-fixture
// harness); whole-module runs go through CheckModule.
func (a AllocFree) Check(pkg *Package) []Diagnostic {
	return a.CheckModule(NewModule([]*Package{pkg}))
}

// CheckModule runs the reachability proof from every annotated root.
func (a AllocFree) CheckModule(mod *Module) []Diagnostic {
	roots, asserted, dangling := collectAllocFreeRoots(mod)
	var out []Diagnostic
	for _, pos := range dangling {
		out = append(out, Diagnostic{
			Analyzer: "allocfree",
			Pos:      pos,
			Message:  "//fedlint:allocfree directive is not the doc comment of a resolvable function declaration; the proof it requests never runs",
		})
	}

	facts := make(map[*types.Func]*allocFacts)
	factsOf := func(fn *types.Func) *allocFacts {
		if f, ok := facts[fn]; ok {
			return f
		}
		f := scanAllocs(mod, mod.Body(fn))
		facts[fn] = f
		return f
	}

	// One BFS per root over the call graph; a given allocation site is
	// reported once, attributed to the first (lowest-position) root that
	// reaches it.
	type step struct {
		caller *types.Func
		edge   allocCall
	}
	reported := make(map[string]bool)
	for _, root := range roots {
		pred := map[*types.Func]step{root.fn: {}}
		// path is the call chain from the root to fn, then last.
		path := func(fn *types.Func, last Hop) []Hop {
			var hops []Hop
			for cur := fn; cur != root.fn; {
				st := pred[cur]
				hops = append(hops, Hop{Pos: st.edge.pos, Note: st.edge.note})
				cur = st.caller
			}
			for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
				hops[i], hops[j] = hops[j], hops[i]
			}
			return append(hops, last)
		}
		queue := []*types.Func{root.fn}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			f := factsOf(fn)
			for _, s := range f.sites {
				key := s.pos.String()
				if reported[key] {
					continue
				}
				reported[key] = true
				hops := path(fn, Hop{Pos: s.pos, Note: s.what})
				out = append(out, Diagnostic{
					Analyzer: "allocfree",
					Pos:      s.pos,
					Message: fmt.Sprintf("heap allocation reachable from //fedlint:allocfree root %s: %s (%d-hop path below)",
						root.fn.FullName(), s.what, len(hops)),
					Path: hops,
				})
			}
			for _, c := range f.calls {
				if _, seen := pred[c.callee]; seen {
					continue
				}
				if mod.Body(c.callee) == nil {
					// Declared here without a Go body: assembly, which
					// no scan can read. Its own //fedlint:allocfree is
					// the explicit claim the proof rests on; without
					// one the call is a hole in the proof.
					key := c.pos.String()
					if asserted[c.callee] || reported[key] {
						continue
					}
					reported[key] = true
					hops := path(fn, Hop{Pos: c.pos, Note: c.note + ", declared without a Go body"})
					out = append(out, Diagnostic{
						Analyzer: "allocfree",
						Pos:      c.pos,
						Message: fmt.Sprintf("%s has no Go body to prove allocation-free and is reachable from //fedlint:allocfree root %s; assert it with //fedlint:allocfree on its declaration (%d-hop path below)",
							c.callee.FullName(), root.fn.FullName(), len(hops)),
						Path: hops,
					})
					continue
				}
				pred[c.callee] = step{caller: fn, edge: c}
				queue = append(queue, c.callee)
			}
		}
	}
	return out
}
