package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// Module bundles the type-checked packages of one LoadModule call with the
// whole-module indexes interprocedural analyzers need: a table of declared
// function bodies, static call-site resolution, and the interface →
// implementation relation for in-module interfaces. A Module is built once
// per Run and shared by every ModuleAnalyzer, so the price of whole-module
// analysis is paid once regardless of how many analyzers consume it.
type Module struct {
	// Pkgs are the packages in dependency order, as LoadModule returned them.
	Pkgs []*Package

	funcs map[*types.Func]*FuncBody
	impls map[*types.Func][]*types.Func

	// bodyless holds the in-module functions declared without a Go body:
	// their code is assembly (or linked in), so no analysis can read it.
	bodyless map[*types.Func]bool

	signalMemo map[*types.Func]bool
}

// FuncBody is one in-module function declaration together with the package
// it was declared in (needed to read that package's type info).
type FuncBody struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// NewModule indexes the given packages. The packages must share one FileSet
// and have been type-checked against each other (LoadModule guarantees
// both); single-package fixtures from tests work too.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:       pkgs,
		funcs:      make(map[*types.Func]*FuncBody),
		bodyless:   make(map[*types.Func]bool),
		signalMemo: make(map[*types.Func]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				switch {
				case !ok:
				case fd.Body == nil:
					m.bodyless[fn] = true
				default:
					m.funcs[fn] = &FuncBody{Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	m.buildImpls()
	return m
}

// Body returns the declaration of an in-module function, or nil for
// functions without source here (standard library, interface methods,
// assembly).
func (m *Module) Body(fn *types.Func) *FuncBody { return m.funcs[fn] }

// Bodyless reports whether fn is an in-module function declared without a
// Go body — one implemented in assembly.
func (m *Module) Bodyless(fn *types.Func) bool { return m.bodyless[fn] }

// Funcs returns every in-module declared function in deterministic
// (position) order.
func (m *Module) Funcs() []*types.Func {
	out := make([]*types.Func, 0, len(m.funcs))
	for fn := range m.funcs {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// Implementations returns the in-module concrete methods that can stand
// behind a dynamic call to the interface method ifn. Only interfaces
// declared inside the module are indexed; calls through foreign interfaces
// resolve to nothing and callers must treat them conservatively.
func (m *Module) Implementations(ifn *types.Func) []*types.Func {
	return m.impls[ifn]
}

// buildImpls computes, for every method of every in-module interface, the
// set of in-module concrete methods implementing it. Both value and pointer
// receivers are considered (a *T method set includes T's).
func (m *Module) buildImpls() {
	m.impls = make(map[*types.Func][]*types.Func)

	var ifaces []*types.Named
	var concretes []*types.Named
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, named)
				}
				continue
			}
			concretes = append(concretes, named)
		}
	}

	for _, inamed := range ifaces {
		iface := inamed.Underlying().(*types.Interface)
		for _, cnamed := range concretes {
			ptr := types.NewPointer(cnamed)
			if !types.Implements(cnamed, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
				cm, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				if _, inModule := m.funcs[cm]; !inModule {
					continue
				}
				m.impls[im] = append(m.impls[im], cm)
			}
		}
	}
}

// StaticCallee resolves a call expression to its callee. The second result
// reports interface dispatch: the returned *types.Func is then the
// interface method, and Implementations lists the possible concrete
// targets. A nil callee means the call is dynamic (function value, method
// value, built-in, or conversion) and cannot be resolved statically.
func (m *Module) StaticCallee(pkg *Package, call *ast.CallExpr) (fn *types.Func, iface bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn, false
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if sel.Kind() == types.FieldVal {
				return nil, false // calling a func-typed field: dynamic
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, false
			}
			return fn, types.IsInterface(sel.Recv())
		}
		// Qualified identifier: pkg.Func.
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn, false
	}
	return nil, false
}

// Signals reports whether fn's body — or the body of any in-module function
// it statically calls, transitively — performs a goroutine completion
// signal: a channel send, a close(), or any use of a sync.WaitGroup. It is
// the interprocedural half of the golaunch supervision check: a goroutine
// launched as `go p.worker()` is supervised when worker itself signals,
// even though nothing is visible at the launch site. Results are memoised;
// recursion through call cycles is cut off (treated as not signalling),
// which can only make the check stricter, never laxer about real signals.
func (m *Module) Signals(fn *types.Func) bool {
	if v, ok := m.signalMemo[fn]; ok {
		return v
	}
	v := m.signalsWalk(fn, map[*types.Func]bool{})
	m.signalMemo[fn] = v
	return v
}

func (m *Module) signalsWalk(fn *types.Func, seen map[*types.Func]bool) bool {
	if seen[fn] {
		return false
	}
	seen[fn] = true
	body := m.funcs[fn]
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.Ident:
			if obj := body.Pkg.Info.Uses[x]; obj != nil && isWaitGroup(obj.Type()) {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := body.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
					return false
				}
			}
			if callee, iface := m.StaticCallee(body.Pkg, x); callee != nil && !iface {
				if m.signalsWalk(callee, seen) {
					found = true
				}
			}
		}
		return true
	})
	return found
}
