package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the shared machinery under the effect-and-allocation
// analyzers (allocfree, slotrace): //fedlint:allocfree directive
// collection, per-function allocation-site scanning with the two
// sanctioned exemptions, and memoized interprocedural write-effect
// summaries over the Module call graph.
//
// Both analyses are deliberately conservative in the same spirit as the
// taint engine: no alias analysis, field-insensitive where it matters,
// and dynamic calls treated pessimistically (allocfree) or as read-only
// (slotrace, documented on the analyzer).

const allocFreePrefix = "//fedlint:allocfree"

// isAllocFreeDirective reports whether a comment line is an allocfree
// annotation (optionally followed by free-form text).
func isAllocFreeDirective(text string) bool {
	if !strings.HasPrefix(text, allocFreePrefix) {
		return false
	}
	rest := strings.TrimPrefix(text, allocFreePrefix)
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// allocRoot is one function annotated //fedlint:allocfree in its doc
// comment: a root of the reachability proof.
type allocRoot struct {
	fn  *types.Func
	pos token.Position
}

// collectAllocFreeRoots scans every file for //fedlint:allocfree
// directives. A directive inside a function declaration's doc comment
// annotates that function: a root of the proof if it has a Go body, an
// assertion the proof takes on trust if it has none (assembly). Any other
// placement (detached comment, comment inside a body, doc of a type)
// cannot be resolved to a function and is returned as dangling — silently
// dropping it would leave the author believing a proof exists that was
// never run.
func collectAllocFreeRoots(mod *Module) (roots []allocRoot, asserted map[*types.Func]bool, dangling []token.Position) {
	asserted = make(map[*types.Func]bool)
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			claimed := make(map[*ast.Comment]bool)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if !isAllocFreeDirective(c.Text) {
						continue
					}
					claimed[c] = true
					fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
					switch {
					case ok && fd.Body != nil:
						roots = append(roots, allocRoot{fn: fn, pos: pkg.Fset.Position(c.Pos())})
					case ok:
						asserted[fn] = true
					default:
						dangling = append(dangling, pkg.Fset.Position(c.Pos()))
					}
				}
			}
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if isAllocFreeDirective(c.Text) && !claimed[c] {
						dangling = append(dangling, pkg.Fset.Position(c.Pos()))
					}
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].fn.Pos() < roots[j].fn.Pos() })
	return roots, asserted, dangling
}

// allocSite is one heap-allocating construct found in a function body.
type allocSite struct {
	pos  token.Position
	what string
}

// allocCall is one outgoing static call edge of a function, kept for
// reachability and path reconstruction.
type allocCall struct {
	callee *types.Func
	pos    token.Position
	note   string
}

// allocFacts is the per-function summary the allocfree BFS consumes:
// direct allocation sites plus the in-module call edges to recurse into.
type allocFacts struct {
	sites []allocSite
	calls []allocCall
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(pkg *Package, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
		return id.Name
	}
	return ""
}

// condChecksLenCap reports whether a condition expression contains a call
// to the len or cap builtin — the shape of a capacity guard.
func condChecksLenCap(pkg *Package, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if b := builtinName(pkg, call); b == "len" || b == "cap" {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// allocExempt implements the two sanctioned escapes of the allocfree
// proof, checked against the ancestor stack of an allocation site:
//
//   - arguments of the panic builtin: a panic path has already left the
//     steady state, so building its message may allocate;
//   - branches of an if whose condition consults len or cap: the shape of
//     both the amortized-growth pattern (allocate only when capacity is
//     exhausted) and the guarded error return (allocate the error only
//     for malformed input). Neither runs in the steady state the proof is
//     about.
func allocExempt(pkg *Package, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.CallExpr:
			if builtinName(pkg, a) == "panic" {
				return true
			}
		case *ast.IfStmt:
			if condChecksLenCap(pkg, a.Cond) {
				return true
			}
		}
	}
	return false
}

// isNonEmptyInterface reports whether t's underlying type is an interface
// with at least one method (boxing into it allocates; the empty interface
// is flagged separately through the variadic ...any rule).
func isNonEmptyInterface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() > 0
}

// variadicAny reports whether a signature's final parameter is ...E with
// an interface element type — the fmt-style shape whose call sites box
// every argument.
func variadicAny(sig *types.Signature) bool {
	if sig == nil || !sig.Variadic() || sig.Params().Len() == 0 {
		return false
	}
	sl, ok := sig.Params().At(sig.Params().Len() - 1).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, isIface := sl.Elem().Underlying().(*types.Interface)
	return isIface
}

// exprType returns the static type of an expression, or nil.
func exprType(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// scanAllocs computes the allocation facts of one function body: every
// heap-allocating construct not covered by an exemption, plus the static
// call edges the reachability proof must follow.
func scanAllocs(mod *Module, fb *FuncBody) *allocFacts {
	pkg := fb.Pkg
	facts := &allocFacts{}
	site := func(n ast.Node, stack []ast.Node, what string) {
		if allocExempt(pkg, stack) {
			return
		}
		facts.sites = append(facts.sites, allocSite{pos: pkg.Fset.Position(n.Pos()), what: what})
	}
	inspectWithStack(fb.Decl.Body, func(n ast.Node, stack []ast.Node) {
		switch x := n.(type) {
		case *ast.CallExpr:
			scanCall(mod, fb, x, stack, facts, site)
		case *ast.FuncLit:
			site(x, stack, "function literal (closure allocation)")
		case *ast.GoStmt:
			site(x, stack, "goroutine launch")
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(exprType(pkg, x)) {
				site(x, stack, "string concatenation")
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := exprType(pkg, idx.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							site(lhs, stack, "map write (may grow the map)")
						}
					}
				}
			}
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(exprType(pkg, x.Lhs[0])) {
				site(x, stack, "string concatenation")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					site(x, stack, "escaping composite literal (&T{...})")
				}
			}
		case *ast.CompositeLit:
			if t := exprType(pkg, x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					site(x, stack, "slice literal")
				case *types.Map:
					site(x, stack, "map literal")
				}
			}
		}
	})
	return facts
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// scanCall classifies one call expression for the allocfree scan: builtin
// allocators, allocating conversions, boxing at the call boundary,
// fmt/log and variadic ...any callees, dynamic calls, and the static call
// edges to recurse into.
func scanCall(mod *Module, fb *FuncBody, call *ast.CallExpr, stack []ast.Node,
	facts *allocFacts, site func(ast.Node, []ast.Node, string)) {
	pkg := fb.Pkg
	pos := pkg.Fset.Position(call.Lparen)

	// Conversion: string <-> []byte/[]rune copies, boxing conversions.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			dst, src := tv.Type, exprType(pkg, call.Args[0])
			if conversionAllocates(dst, src) {
				site(call, stack, "allocating conversion "+types.TypeString(dst, nil)+"(...)")
			}
			if src != nil && isNonEmptyInterface(dst) && !types.IsInterface(src) {
				site(call, stack, "boxing conversion into non-empty interface "+types.TypeString(dst, nil))
			}
		}
		return
	}

	switch builtinName(pkg, call) {
	case "make":
		site(call, stack, "make")
		return
	case "new":
		site(call, stack, "new")
		return
	case "append":
		site(call, stack, "append may grow its backing array")
		return
	case "print", "println":
		site(call, stack, "print builtin")
		return
	case "":
		// Not a builtin; fall through to callee resolution.
	default:
		return // len, cap, copy, delete, panic, ...: no allocation
	}

	callee, iface := mod.StaticCallee(pkg, call)
	switch {
	case callee == nil:
		site(call, stack, "dynamic call through a function value (cannot be proven allocation-free)")
		return
	case iface:
		impls := mod.Implementations(callee)
		if len(impls) == 0 {
			site(call, stack, "call through interface "+callee.Name()+" with no in-module implementation")
		}
		for _, impl := range impls {
			facts.calls = append(facts.calls, allocCall{
				callee: impl, pos: pos,
				note: "calls " + impl.FullName() + " (via interface " + callee.Name() + ")",
			})
		}
	case mod.Body(callee) != nil || mod.Bodyless(callee):
		facts.calls = append(facts.calls, allocCall{
			callee: callee, pos: pos, note: "calls " + callee.FullName(),
		})
	default:
		// Foreign callee: assumed allocation-free except for the known
		// allocators — fmt/log (formatting machinery) and any ...any
		// variadic (every argument is boxed at the call site).
		if p := callee.Pkg(); p != nil && (p.Path() == "fmt" || p.Path() == "log") {
			site(call, stack, "call to "+callee.FullName()+" (fmt/log allocates)")
			return
		}
	}

	sig, _ := callee.Type().(*types.Signature)
	if variadicAny(sig) && len(call.Args) >= sig.Params().Len() {
		site(call, stack, "variadic ...interface{} call to "+callee.Name()+" boxes its arguments")
	}
	// Boxing at the call boundary: a non-interface argument passed to a
	// non-empty-interface parameter allocates the interface payload.
	if sig != nil {
		params := sig.Params()
		for j, arg := range call.Args {
			pidx := j
			if pidx >= params.Len() {
				if !sig.Variadic() {
					break
				}
				pidx = params.Len() - 1
			}
			pt := params.At(pidx).Type()
			if sig.Variadic() && pidx == params.Len()-1 && !call.Ellipsis.IsValid() {
				if sl, ok := pt.Underlying().(*types.Slice); ok {
					pt = sl.Elem()
				}
			}
			at := exprType(pkg, arg)
			if at != nil && isNonEmptyInterface(pt) && !types.IsInterface(at) {
				site(arg, stack, "argument boxed into non-empty interface parameter of "+callee.Name())
			}
		}
	}
}

// conversionAllocates reports whether converting src to dst copies into a
// fresh heap object: string <-> []byte / []rune in either direction.
func conversionAllocates(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// ---------------------------------------------------------------------------
// Write-effect summaries (the slotrace half of the effect analysis).

// effTargetKind discriminates what a function writes through.
type effTargetKind int

const (
	effRecv   effTargetKind = iota // writes through its receiver
	effParam                       // writes through parameter idx
	effGlobal                      // writes a package-level variable
)

// effTarget is one comparable write target of a function's summary.
type effTarget struct {
	kind effTargetKind
	idx  int // parameter index for effParam
}

// writeEffect summarises what one function writes outside its own frame.
// Each target carries one representative hop chain ending at the concrete
// write, for path reporting.
type writeEffect struct {
	targets map[effTarget][]Hop
}

func newWriteEffect() *writeEffect {
	return &writeEffect{targets: make(map[effTarget][]Hop)}
}

func (w *writeEffect) add(t effTarget, hops []Hop) {
	if _, ok := w.targets[t]; ok {
		return
	}
	w.targets[t] = hops
}

// effectEngine memoizes write-effect summaries over the module call
// graph. Recursion through call cycles is cut off (a cycle member's
// callees see an empty summary for it), mirroring Module.Signals.
type effectEngine struct {
	mod        *Module
	memo       map[*types.Func]*writeEffect
	inProgress map[*types.Func]bool
}

func newEffectEngine(mod *Module) *effectEngine {
	return &effectEngine{
		mod:        mod,
		memo:       make(map[*types.Func]*writeEffect),
		inProgress: make(map[*types.Func]bool),
	}
}

// effects returns fn's write-effect summary, computing and memoizing it
// on first use. Functions without in-module bodies summarise to empty.
func (e *effectEngine) effects(fn *types.Func) *writeEffect {
	if w, ok := e.memo[fn]; ok {
		return w
	}
	if e.inProgress[fn] {
		return newWriteEffect()
	}
	fb := e.mod.Body(fn)
	if fb == nil {
		return newWriteEffect()
	}
	e.inProgress[fn] = true
	w := e.compute(fn, fb)
	delete(e.inProgress, fn)
	e.memo[fn] = w
	return w
}

// foreignMayWriteArgs reports whether a foreign (out-of-module) callee
// may write through its mutable arguments. Most are treated
// conservatively as writers (binary.PutUint32(buf, v) really does write
// buf), but the pure-reader stdlib families pervasive in wire hot paths
// are excluded — flagging binary.LittleEndian.Uint32(payload) as a write
// of payload would poison every decode path. Receiver mutation is judged
// separately (a foreign method may always write its mutable receiver:
// rng.Intn advances the generator).
func foreignMayWriteArgs(callee *types.Func) bool {
	p := callee.Pkg()
	if p == nil {
		return true
	}
	switch p.Path() {
	case "math", "math/bits", "strconv", "unicode", "unicode/utf8":
		return false
	case "encoding/binary":
		name := callee.Name()
		return strings.HasPrefix(name, "Put") || strings.HasPrefix(name, "Append") ||
			strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Read") ||
			strings.HasPrefix(name, "Decode")
	}
	return true
}

// isPkgLevel reports whether obj is a package-level variable.
func isPkgLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// rootTargets maps fn's receiver and parameter objects to their targets.
func rootTargets(fn *types.Func) map[types.Object]effTarget {
	out := make(map[types.Object]effTarget)
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return out
	}
	if recv := sig.Recv(); recv != nil {
		out[recv] = effTarget{kind: effRecv}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out[sig.Params().At(i)] = effTarget{kind: effParam, idx: i}
	}
	return out
}

// originSet is the set of write targets an object can alias.
type originSet map[effTarget]bool

// computeOrigins runs a small fixpoint over fn's body mapping each local
// variable to the receiver/parameter/global roots whose referents it may
// alias. Only reference-carrying types propagate (a struct copied by
// value detaches from its source); two passes suffice for the
// assignment-through-intermediate chains that occur in practice.
func computeOrigins(fb *FuncBody, roots map[types.Object]effTarget) map[types.Object]originSet {
	pkg := fb.Pkg
	origins := make(map[types.Object]originSet)

	originsOf := func(e ast.Expr) originSet {
		out := make(originSet)
		ast.Inspect(e, func(n ast.Node) bool {
			// A subexpression of non-reference type (an int from len(x), a
			// float element read, a struct copied by value) cannot carry an
			// alias; pruning it keeps size arguments like make(_, len(p))
			// from falsely tying the result to p.
			if sub, ok := n.(ast.Expr); ok {
				if t := exprType(pkg, sub); t != nil && !isMutableType(t) {
					return false
				}
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pkg.Info.Uses[id]
			if obj == nil {
				obj = pkg.Info.Defs[id]
			}
			v, ok := obj.(*types.Var)
			if !ok || !isMutableType(v.Type()) {
				return true
			}
			if t, isRoot := roots[v]; isRoot {
				out[t] = true
			} else if isPkgLevel(v) {
				out[effTarget{kind: effGlobal}] = true
			}
			for t := range origins[v] {
				out[t] = true
			}
			return true
		})
		return out
	}
	merge := func(id *ast.Ident, from originSet) {
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		set := origins[v]
		if set == nil {
			set = make(originSet)
			origins[v] = set
		}
		for t := range from {
			set[t] = true
		}
	}

	for pass := 0; pass < 2; pass++ {
		ast.Inspect(fb.Decl.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
					from := originsOf(s.Rhs[0])
					for _, lhs := range s.Lhs {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							merge(id, from)
						}
					}
					return true
				}
				for i, lhs := range s.Lhs {
					if i >= len(s.Rhs) {
						break
					}
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						merge(id, originsOf(s.Rhs[i]))
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) {
						merge(name, originsOf(s.Values[i]))
					} else if len(s.Values) == 1 {
						merge(name, originsOf(s.Values[0]))
					}
				}
			case *ast.RangeStmt:
				from := originsOf(s.X)
				for _, lhs := range []ast.Expr{s.Key, s.Value} {
					if id, ok := lhs.(*ast.Ident); ok && lhs != nil {
						merge(id, from)
					}
				}
			}
			return true
		})
	}
	return origins
}

// writeBaseObjs resolves the base variables an lvalue (or written-through
// call argument) navigates from: x in x[i], *x, x.f, x[i:j].
func writeBaseObjs(pkg *Package, e ast.Expr) []types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			return []types.Object{v}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return writeBaseObjs(pkg, x.X)
		}
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok {
			return []types.Object{v} // qualified package-level variable
		}
	case *ast.IndexExpr:
		return writeBaseObjs(pkg, x.X)
	case *ast.SliceExpr:
		return writeBaseObjs(pkg, x.X)
	case *ast.StarExpr:
		return writeBaseObjs(pkg, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return writeBaseObjs(pkg, x.X) // writing through &x writes x
		}
	}
	return nil
}

// compute builds fn's write-effect summary: direct writes through roots
// or root-aliasing locals, plus propagated effects of every statically
// resolvable callee.
func (e *effectEngine) compute(fn *types.Func, fb *FuncBody) *writeEffect {
	pkg := fb.Pkg
	w := newWriteEffect()
	roots := rootTargets(fn)
	origins := computeOrigins(fb, roots)

	// resolveWrite records a write through expression lv, attributing it
	// to every root target lv's base objects may alias.
	resolveWrite := func(lv ast.Expr, pos token.Position, note string, plainIdent bool) {
		for _, obj := range writeBaseObjs(pkg, lv) {
			hop := []Hop{{Pos: pos, Note: note}}
			if isPkgLevel(obj) {
				w.add(effTarget{kind: effGlobal}, hop)
				continue
			}
			if plainIdent {
				continue // rebinding a local or parameter variable: frame-local
			}
			if t, ok := roots[obj]; ok {
				if isMutableType(obj.Type()) {
					w.add(t, hop)
				}
				continue
			}
			for t := range origins[obj] {
				w.add(t, hop)
			}
		}
	}
	// propagate maps one callee write target onto the caller's frame
	// through the expression standing at that position of the call.
	propagate := func(arg ast.Expr, pos token.Position, callee *types.Func, hops []Hop) {
		for _, obj := range writeBaseObjs(pkg, arg) {
			chain := append([]Hop{{Pos: pos, Note: "calls " + callee.Name() + ", which writes through " + exprText(arg)}}, hops...)
			if isPkgLevel(obj) {
				w.add(effTarget{kind: effGlobal}, chain)
				continue
			}
			if t, ok := roots[obj]; ok {
				if isMutableType(obj.Type()) {
					w.add(t, chain)
				}
				continue
			}
			for t := range origins[obj] {
				w.add(t, chain)
			}
		}
	}
	applyCallee := func(call *ast.CallExpr, callee *types.Func, pos token.Position) {
		eff := e.effects(callee)
		for t, hops := range eff.targets {
			switch t.kind {
			case effGlobal:
				w.add(effTarget{kind: effGlobal},
					append([]Hop{{Pos: pos, Note: "calls " + callee.Name() + ", which writes package-level state"}}, hops...))
			case effParam:
				if t.idx < len(call.Args) {
					propagate(call.Args[t.idx], pos, callee, hops)
				}
			case effRecv:
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
						propagate(sel.X, pos, callee, hops)
					}
				}
			}
		}
	}

	ast.Inspect(fb.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				_, plain := ast.Unparen(lhs).(*ast.Ident)
				resolveWrite(lhs, pkg.Fset.Position(s.TokPos), "writes "+exprText(lhs), plain)
			}
		case *ast.IncDecStmt:
			_, plain := ast.Unparen(s.X).(*ast.Ident)
			resolveWrite(s.X, pkg.Fset.Position(s.TokPos), "writes "+exprText(s.X), plain)
		case *ast.CallExpr:
			pos := pkg.Fset.Position(s.Lparen)
			switch builtinName(pkg, s) {
			case "copy", "append", "delete":
				if len(s.Args) > 0 {
					resolveWrite(s.Args[0], pos, "writes through "+exprText(s.Args[0]), false)
				}
				return true
			case "":
				// Not a builtin.
			default:
				return true
			}
			callee, iface := e.mod.StaticCallee(pkg, s)
			switch {
			case callee == nil:
				// Dynamic call through a function value: assumed read-only
				// (documented on the slotrace analyzer).
			case iface:
				for _, impl := range e.mod.Implementations(callee) {
					applyCallee(s, impl, pos)
				}
			case e.mod.Body(callee) != nil:
				applyCallee(s, callee, pos)
			default:
				// Foreign callee: may write through any mutable argument or
				// its receiver (binary.PutUint32(buf, v), rng.Intn(...)).
				if foreignMayWriteArgs(callee) {
					for _, arg := range s.Args {
						if t := exprType(pkg, arg); t != nil && isMutableType(t) {
							resolveWrite(arg, pos, "passed to "+callee.Name()+", which may write through it", false)
						}
					}
				}
				if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
					if sl, ok := pkg.Info.Selections[sel]; ok && sl.Kind() == types.MethodVal {
						if t := exprType(pkg, sel.X); t != nil && isMutableType(t) {
							resolveWrite(sel.X, pos, "receiver of foreign method "+callee.Name(), false)
						}
					}
				}
			}
		}
		return true
	})
	return w
}
