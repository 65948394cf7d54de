package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file implements the forward taint engine underneath the privacytaint
// analyzer: a whole-module value-flow graph over variables, struct fields,
// function results and sink sites, built in one pass over every function
// body, then searched by BFS from the configured telemetry sources. The
// engine is deliberately conservative (field-insensitive across instances,
// no alias analysis for in-place mutation through call arguments) and
// reports each leak as a source → … → sink chain in which every hop carries
// a source position.
//
// Flow edges are added for: assignments and short declarations (including
// tuple and comma-ok forms), var-spec initialisers, composite literals
// (keyed and positional struct fields), return statements, channel sends,
// range statements, type-switch bindings, call arguments → parameters of
// in-module callees, interface calls → every in-module implementation, and
// — for callees without source in the module (standard library) — a
// conservative pass-through from every argument to the call result and to
// every mutable (pointer/slice/map) sibling argument, which is how flows
// like binary.PutUint32(buf, v) taint buf.

// taintKind discriminates the node kinds of the flow graph.
type taintKind int

const (
	nodeObj       taintKind = iota // a variable, parameter or named result
	nodeField                      // a struct field, field-insensitive across instances
	nodeResult                     // result idx of a declared function
	nodeLitResult                  // result idx of a function literal
	nodeSource                     // all values of one telemetry type
	nodeSink                       // one sink site (call argument or field write)
)

// taintNode is one comparable vertex of the flow graph.
type taintNode struct {
	kind taintKind
	obj  types.Object // nodeObj, nodeField
	fn   *types.Func  // nodeResult
	lit  *ast.FuncLit // nodeLitResult
	idx  int          // result index / sink site index
	typ  *types.TypeName
}

// taintEdge is one directed flow step with provenance for path reporting.
type taintEdge struct {
	to   taintNode
	pos  token.Position
	note string
}

// sinkSite is one concrete place where data crosses the guarded boundary.
type sinkSite struct {
	node taintNode
	pos  token.Position
	desc string
}

// taintGraph accumulates the module's flow edges, source roots and sinks.
type taintGraph struct {
	mod *Module
	cfg *resolvedTaint

	edges map[taintNode][]taintEdge
	roots []taintNode
	rootD map[taintNode]string // root -> human description
	sinks []*sinkSite

	// sanitized marks nodes whose value has passed through a sanctioned
	// cleansing step (e.g. a collected-keys slice handed to sort.Slice in
	// the maporder analysis); the BFS does not propagate taint out of a
	// sanitized node. privacytaint never populates the set — there is no
	// operation that launders telemetry into non-telemetry.
	sanitized map[taintNode]bool
}

// resolvedTaint is a TaintConfig bound to the concrete type-checker objects
// of one module (see TaintConfig.resolve in privacytaint.go).
type resolvedTaint struct {
	sourceTypes map[*types.TypeName]bool
	sourceFuncs map[*types.Func]bool
	sinkFuncs   map[*types.Func]bool
	sinkFields  map[*types.Var]bool
	writerPkgs  map[string]bool
	allow       map[*types.Func]bool
}

func newTaintGraph(mod *Module, cfg *resolvedTaint) *taintGraph {
	return &taintGraph{
		mod:       mod,
		cfg:       cfg,
		edges:     make(map[taintNode][]taintEdge),
		rootD:     make(map[taintNode]string),
		sanitized: make(map[taintNode]bool),
	}
}

func (g *taintGraph) addEdge(from, to taintNode, pos token.Position, note string) {
	if from == to {
		return
	}
	g.edges[from] = append(g.edges[from], taintEdge{to: to, pos: pos, note: note})
}

func (g *taintGraph) addRoot(n taintNode, desc string) {
	if _, ok := g.rootD[n]; ok {
		return
	}
	g.rootD[n] = desc
	g.roots = append(g.roots, n)
}

func (g *taintGraph) newSink(pos token.Position, desc string) taintNode {
	n := taintNode{kind: nodeSink, idx: len(g.sinks)}
	g.sinks = append(g.sinks, &sinkSite{node: n, pos: pos, desc: desc})
	return n
}

// isSourceType reports whether t is (or contains, through pointers, slices,
// arrays, maps or channels) one of the configured telemetry types, and
// returns the matched type's name object.
func (g *taintGraph) isSourceType(t types.Type) (*types.TypeName, bool) {
	for depth := 0; t != nil && depth < 8; depth++ {
		if named, ok := t.(*types.Named); ok {
			if g.cfg.sourceTypes[named.Obj()] {
				return named.Obj(), true
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return nil, false
		}
	}
	return nil, false
}

// build walks every file of every package, adding flow edges.
func (g *taintGraph) build() {
	for _, pkg := range g.mod.Pkgs {
		for _, file := range pkg.Files {
			g.walkFile(pkg, file)
		}
	}
}

// walkFile adds the flow edges contributed by one source file.
func (g *taintGraph) walkFile(pkg *Package, file *ast.File) {
	g.walkNode(pkg, file)
}

// walkNode adds the flow edges contributed by one subtree — a whole file
// for module-wide analyses (privacytaint), or a single function
// declaration for function-scoped ones (maporder).
func (g *taintGraph) walkNode(pkg *Package, root ast.Node) {
	inspectWithStack(root, func(n ast.Node, stack []ast.Node) {
		switch s := n.(type) {
		case *ast.FuncDecl:
			g.namedResultEdges(pkg, s.Type, s)
		case *ast.FuncLit:
			g.namedResultEdges(pkg, s.Type, s)
		case *ast.ValueSpec:
			g.valueSpec(pkg, s)
		case *ast.AssignStmt:
			g.assign(pkg, s)
		case *ast.ReturnStmt:
			g.ret(pkg, s, stack)
		case *ast.SendStmt:
			pos := pkg.Fset.Position(s.Arrow)
			g.flowInto(pkg, g.writeTargets(pkg, s.Chan), g.refs(pkg, s.Value), pos, "sent on channel")
		case *ast.RangeStmt:
			pos := pkg.Fset.Position(s.For)
			from := g.refs(pkg, s.X)
			for _, lhs := range []ast.Expr{s.Key, s.Value} {
				if lhs == nil {
					continue
				}
				g.flowInto(pkg, g.writeTargets(pkg, lhs), from, pos, "ranged into "+exprText(lhs))
			}
		case *ast.TypeSwitchStmt:
			g.typeSwitch(pkg, s)
		case *ast.CallExpr:
			g.call(pkg, s)
		case *ast.CompositeLit:
			g.composite(pkg, s)
		}
	})
}

// valueSpec handles `var x = expr` at package level and inside functions.
func (g *taintGraph) valueSpec(pkg *Package, s *ast.ValueSpec) {
	if len(s.Values) == 0 {
		return
	}
	pos := pkg.Fset.Position(s.Pos())
	if len(s.Values) == 1 && len(s.Names) > 1 {
		from := g.refs(pkg, s.Values[0])
		for _, name := range s.Names {
			g.flowInto(pkg, g.defTargets(pkg, name), from, pos, "assigned to "+name.Name)
		}
		return
	}
	for i, name := range s.Names {
		if i >= len(s.Values) {
			break
		}
		g.flowInto(pkg, g.defTargets(pkg, name), g.refs(pkg, s.Values[i]), pos, "assigned to "+name.Name)
	}
}

// assign handles =, :=, and the compound assignment operators.
func (g *taintGraph) assign(pkg *Package, s *ast.AssignStmt) {
	pos := pkg.Fset.Position(s.TokPos)
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Tuple assignment: multi-result call, comma-ok, or map/channel read.
		rhs := ast.Unparen(s.Rhs[0])
		if call, ok := rhs.(*ast.CallExpr); ok {
			if callee, _ := g.mod.StaticCallee(pkg, call); callee != nil && g.mod.Body(callee) != nil {
				for i, lhs := range s.Lhs {
					from := []taintNode{{kind: nodeResult, fn: callee, idx: i}}
					g.flowInto(pkg, g.writeTargets(pkg, lhs), from, pos, "assigned to "+exprText(lhs))
				}
				return
			}
		}
		from := g.refs(pkg, s.Rhs[0])
		for _, lhs := range s.Lhs {
			g.flowInto(pkg, g.writeTargets(pkg, lhs), from, pos, "assigned to "+exprText(lhs))
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		g.flowInto(pkg, g.writeTargets(pkg, lhs), g.refs(pkg, s.Rhs[i]), pos, "assigned to "+exprText(lhs))
	}
}

// ret connects return values to the enclosing function's result nodes,
// unless that function is allowlisted (its results are declared clean — the
// sanctioned declassification boundary).
func (g *taintGraph) ret(pkg *Package, s *ast.ReturnStmt, stack []ast.Node) {
	fn, lit := enclosingFunc(pkg, stack)
	if fn == nil && lit == nil {
		return
	}
	if fn != nil && g.cfg.allow[fn] {
		return
	}
	pos := pkg.Fset.Position(s.Return)
	for i, res := range s.Results {
		var to taintNode
		if fn != nil {
			to = taintNode{kind: nodeResult, fn: fn, idx: i}
		} else {
			to = taintNode{kind: nodeLitResult, lit: lit, idx: i}
		}
		note := "returned"
		if fn != nil {
			note = "returned from " + fn.Name()
		}
		for _, from := range g.refs(pkg, res) {
			g.addEdge(from, to, pos, note)
		}
	}
}

// enclosingFunc finds the innermost function containing the current node:
// either a declared function (with its *types.Func) or a function literal.
func enclosingFunc(pkg *Package, stack []ast.Node) (*types.Func, *ast.FuncLit) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return nil, f
		case *ast.FuncDecl:
			fn, _ := pkg.Info.Defs[f.Name].(*types.Func)
			return fn, nil
		}
	}
	return nil, nil
}

// namedResultEdges links a function's named result variables to its result
// nodes, so `res = x; return` flows like `return x`. Allowlisted functions
// are skipped: their results are clean by contract.
func (g *taintGraph) namedResultEdges(pkg *Package, ftype *ast.FuncType, owner ast.Node) {
	if ftype.Results == nil {
		return
	}
	var fn *types.Func
	var lit *ast.FuncLit
	switch o := owner.(type) {
	case *ast.FuncDecl:
		fn, _ = pkg.Info.Defs[o.Name].(*types.Func)
		if fn == nil || g.cfg.allow[fn] {
			return
		}
	case *ast.FuncLit:
		lit = o
	}
	idx := 0
	for _, field := range ftype.Results.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, name := range field.Names {
			obj := pkg.Info.Defs[name]
			if obj != nil {
				var to taintNode
				if fn != nil {
					to = taintNode{kind: nodeResult, fn: fn, idx: idx}
				} else {
					to = taintNode{kind: nodeLitResult, lit: lit, idx: idx}
				}
				g.addEdge(taintNode{kind: nodeObj, obj: obj}, to,
					pkg.Fset.Position(name.Pos()), "named result "+name.Name)
			}
			idx++
		}
	}
}

// typeSwitch flows the switched value into each clause's implicit binding.
func (g *taintGraph) typeSwitch(pkg *Package, s *ast.TypeSwitchStmt) {
	assign, ok := s.Assign.(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 {
		return
	}
	ta, ok := ast.Unparen(assign.Rhs[0]).(*ast.TypeAssertExpr)
	if !ok {
		return
	}
	from := g.refs(pkg, ta.X)
	pos := pkg.Fset.Position(s.Switch)
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if obj := pkg.Info.Implicits[cc]; obj != nil {
			g.flowInto(pkg, []taintNode{{kind: nodeObj, obj: obj}}, from, pos, "type-switch binding")
		}
	}
}

// call adds the edges a call site contributes: argument → parameter flows,
// interface dispatch to every in-module implementation, conservative
// pass-through for foreign callees, sink registration, and the copy()
// builtin's dst ← src flow.
func (g *taintGraph) call(pkg *Package, call *ast.CallExpr) {
	pos := pkg.Fset.Position(call.Lparen)

	// Conversions contribute nothing beyond refs pass-through.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	// Builtins: only copy moves data between distinct objects.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "copy" && len(call.Args) == 2 {
				g.flowInto(pkg, g.writeTargets(pkg, call.Args[0]), g.refs(pkg, call.Args[1]),
					pos, "copied into "+exprText(call.Args[0]))
			}
			return
		}
	}

	callee, iface := g.mod.StaticCallee(pkg, call)

	// Sink: tainted argument to a configured sink function. A sink method's
	// receiver is an argument too: an encoder method ships its receiver.
	if callee != nil && g.cfg.sinkFuncs[callee] {
		sink := g.newSink(pos, "argument to "+callee.FullName())
		args := call.Args
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				args = append([]ast.Expr{sel.X}, args...)
			}
		}
		for _, arg := range args {
			g.flowInto(pkg, []taintNode{sink}, g.refs(pkg, arg), pos, "passed to sink "+callee.FullName())
		}
	}
	// Sink: Write-style method calls inside the wire packages.
	if callee != nil && g.cfg.writerPkgs[pkg.Path] && isWriteMethod(callee) {
		sink := g.newSink(pos, "written to the wire ("+callee.Name()+" in "+pkg.Path+")")
		for _, arg := range call.Args {
			g.flowInto(pkg, []taintNode{sink}, g.refs(pkg, arg), pos, "written via "+callee.Name())
		}
	}

	switch {
	case callee == nil:
		// Dynamic call through a function value: conservative cross-argument
		// contamination (the callee may store any argument anywhere
		// reachable from its mutable arguments).
		g.crossArgEdges(pkg, call, pos)
	case iface:
		// Interface dispatch: bind to every in-module implementation, plus a
		// conservative pass-through in case the concrete type lives outside
		// the module.
		for _, cm := range g.mod.Implementations(callee) {
			g.paramEdges(pkg, cm, call, pos)
			g.linkResults(cm, callee, pos)
		}
		g.passThroughResults(pkg, callee, call, pos)
	case g.mod.Body(callee) != nil:
		g.paramEdges(pkg, callee, call, pos)
	default:
		// Foreign callee (standard library): arguments flow to the results
		// (handled by refs) and into mutable sibling arguments.
		g.crossArgEdges(pkg, call, pos)
	}

	// Source functions: their results are telemetry roots.
	if callee != nil && g.cfg.sourceFuncs[callee] {
		nres := callee.Type().(*types.Signature).Results().Len()
		for i := 0; i < nres; i++ {
			g.addRoot(taintNode{kind: nodeResult, fn: callee, idx: i},
				"result of "+callee.FullName())
		}
	}
}

// paramEdges flows call arguments (and the receiver) into the callee's
// parameter objects. The signature parameter vars of an in-module function
// are the same objects its body's identifiers resolve to, so these edges
// connect caller and callee precisely.
func (g *taintGraph) paramEdges(pkg *Package, callee *types.Func, call *ast.CallExpr, pos token.Position) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	args := call.Args
	// Method-expression form T.M(recv, args...): the first argument is the
	// receiver.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok {
			switch s.Kind() {
			case types.MethodVal:
				if recv := sig.Recv(); recv != nil {
					g.flowInto(pkg, []taintNode{{kind: nodeObj, obj: recv}}, g.refs(pkg, sel.X),
						pos, "receiver of "+callee.Name())
				}
			case types.MethodExpr:
				if recv := sig.Recv(); recv != nil && len(args) > 0 {
					g.flowInto(pkg, []taintNode{{kind: nodeObj, obj: recv}}, g.refs(pkg, args[0]),
						pos, "receiver of "+callee.Name())
					args = args[1:]
				}
			}
		}
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for j, arg := range args {
		pidx := j
		if pidx >= params.Len() {
			pidx = params.Len() - 1 // variadic tail
		}
		pv := params.At(pidx)
		g.flowInto(pkg, []taintNode{{kind: nodeObj, obj: pv}}, g.refs(pkg, arg),
			pos, fmt.Sprintf("passed to %s (param %s)", callee.Name(), paramName(pv, pidx)))
	}
}

func paramName(pv *types.Var, idx int) string {
	if pv.Name() != "" && pv.Name() != "_" {
		return pv.Name()
	}
	return fmt.Sprintf("#%d", idx)
}

// linkResults connects a concrete method's results to the interface
// method's result nodes, so values returned by any implementation flow out
// of the dynamic call site.
func (g *taintGraph) linkResults(impl, ifaceFn *types.Func, pos token.Position) {
	nres := ifaceFn.Type().(*types.Signature).Results().Len()
	for i := 0; i < nres; i++ {
		g.addEdge(taintNode{kind: nodeResult, fn: impl, idx: i},
			taintNode{kind: nodeResult, fn: ifaceFn, idx: i},
			pos, "returned via interface "+ifaceFn.Name())
	}
}

// passThroughResults conservatively flows every argument of a dynamic call
// into its results (an unknown implementation may echo its inputs).
func (g *taintGraph) passThroughResults(pkg *Package, ifaceFn *types.Func, call *ast.CallExpr, pos token.Position) {
	nres := ifaceFn.Type().(*types.Signature).Results().Len()
	if nres == 0 {
		return
	}
	var results []taintNode
	for i := 0; i < nres; i++ {
		results = append(results, taintNode{kind: nodeResult, fn: ifaceFn, idx: i})
	}
	for _, arg := range call.Args {
		g.flowInto(pkg, results, g.refs(pkg, arg), pos, "through dynamic call "+ifaceFn.Name())
	}
}

// crossArgEdges models calls whose body is invisible (standard library,
// function values): every argument may be stored into any mutable sibling
// argument or the receiver, e.g. binary.PutUint32(buf, v) taints buf.
func (g *taintGraph) crossArgEdges(pkg *Package, call *ast.CallExpr, pos token.Position) {
	type mutable struct {
		targets []taintNode
		text    string
	}
	var muts []mutable
	addMutable := func(e ast.Expr) {
		tv, ok := pkg.Info.Types[e]
		if !ok || tv.Type == nil || !isMutableType(tv.Type) {
			return
		}
		if targets := g.writeTargets(pkg, e); len(targets) > 0 {
			muts = append(muts, mutable{targets: targets, text: exprText(e)})
		}
	}
	for _, arg := range call.Args {
		addMutable(arg)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			addMutable(sel.X)
		}
	}
	if len(muts) == 0 {
		return
	}
	for _, arg := range call.Args {
		from := g.refs(pkg, arg)
		if len(from) == 0 {
			continue
		}
		for _, mu := range muts {
			g.flowInto(pkg, mu.targets, from, pos, "stored into "+mu.text+" by opaque call")
		}
	}
}

func isMutableType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// isWriteMethod matches io.Writer-shaped methods: Write([]byte) or
// WriteString(string) style calls carrying an outbound byte payload.
func isWriteMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteTo", "ReadFrom":
		return sig.Params().Len() >= 1
	}
	return false
}

// composite flows keyed and positional struct-literal elements into the
// corresponding field nodes, registering sink sites for configured payload
// fields.
func (g *taintGraph) composite(pkg *Package, cl *ast.CompositeLit) {
	tv, ok := pkg.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	strct, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	pos := pkg.Fset.Position(cl.Lbrace)
	for i, elt := range cl.Elts {
		var field *types.Var
		var value ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			field, _ = pkg.Info.Uses[key].(*types.Var)
			value = kv.Value
		} else {
			if i < strct.NumFields() {
				field = strct.Field(i)
			}
			value = elt
		}
		if field == nil {
			continue
		}
		from := g.refs(pkg, value)
		g.flowInto(pkg, []taintNode{{kind: nodeField, obj: field}}, from, pos,
			"stored in field "+field.Name())
		if g.cfg.sinkFields[field] {
			sink := g.newSink(pkg.Fset.Position(value.Pos()),
				"wire payload field "+field.Name())
			g.flowInto(pkg, []taintNode{sink}, from, pkg.Fset.Position(value.Pos()),
				"stored in wire payload field "+field.Name())
		}
	}
}

// flowInto adds edges from every source node to every target node.
func (g *taintGraph) flowInto(pkg *Package, targets, from []taintNode, pos token.Position, note string) {
	for _, t := range targets {
		for _, f := range from {
			g.addEdge(f, t, pos, note)
		}
	}
}

// defTargets resolves a defining identifier (:=, var, range) to its node.
func (g *taintGraph) defTargets(pkg *Package, id *ast.Ident) []taintNode {
	if id.Name == "_" {
		return nil
	}
	if obj := pkg.Info.Defs[id]; obj != nil {
		return []taintNode{{kind: nodeObj, obj: obj}}
	}
	if obj := pkg.Info.Uses[id]; obj != nil {
		return []taintNode{{kind: nodeObj, obj: obj}}
	}
	return nil
}

// writeTargets resolves the left-hand side of a flow to the graph nodes the
// written value lands in: the root variable for index/star/slice writes,
// plus the field node (and sink site, if configured) for field writes.
func (g *taintGraph) writeTargets(pkg *Package, e ast.Expr) []taintNode {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return g.defTargets(pkg, x)
	case *ast.SelectorExpr:
		var out []taintNode
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if fv, ok := sel.Obj().(*types.Var); ok {
				out = append(out, taintNode{kind: nodeField, obj: fv})
				if g.cfg.sinkFields[fv] {
					sink := g.newSink(pkg.Fset.Position(x.Pos()), "wire payload field "+fv.Name())
					out = append(out, sink)
				}
			}
			// The write lands in the field node only. Tainting the
			// enclosing object too would poison every other field of the
			// struct (writing obs into d.lastObs must not taint d.table),
			// and whole-object taint still reaches field reads through the
			// read-side base refs.
			return out
		}
		if obj, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok {
			// Qualified package-level variable.
			out = append(out, taintNode{kind: nodeObj, obj: obj})
		}
		return append(out, g.writeTargets(pkg, x.X)...)
	case *ast.IndexExpr:
		return g.writeTargets(pkg, x.X)
	case *ast.SliceExpr:
		return g.writeTargets(pkg, x.X)
	case *ast.StarExpr:
		return g.writeTargets(pkg, x.X)
	}
	return nil
}

// refs returns the graph nodes an expression reads: the variables, fields
// and call results it is built from, plus a telemetry-type root whenever
// the expression's static type is (or contains) a configured source type.
func (g *taintGraph) refs(pkg *Package, e ast.Expr) []taintNode {
	var out []taintNode
	seen := make(map[taintNode]bool)
	add := func(n taintNode) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	g.refsInto(pkg, e, add)
	return out
}

func (g *taintGraph) refsInto(pkg *Package, e ast.Expr, add func(taintNode)) {
	if e == nil {
		return
	}
	// Any value of a telemetry type is tainted at birth: reading it reads
	// the source itself.
	if tv, ok := pkg.Info.Types[e]; ok && tv.Type != nil && !tv.IsType() {
		if tn, ok := g.isSourceType(tv.Type); ok {
			n := taintNode{kind: nodeSource, typ: tn}
			g.addRoot(n, "value of telemetry type "+tn.Pkg().Path()+"."+tn.Name())
			// The edge from the source root to wherever this value flows is
			// added by the caller; record the read position via a
			// self-describing root.
			add(n)
		}
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil {
			if _, ok := obj.(*types.Var); ok {
				add(taintNode{kind: nodeObj, obj: obj})
			}
		} else if obj := pkg.Info.Defs[x]; obj != nil {
			if _, ok := obj.(*types.Var); ok {
				add(taintNode{kind: nodeObj, obj: obj})
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			if sel.Kind() == types.FieldVal {
				if fv, ok := sel.Obj().(*types.Var); ok {
					add(taintNode{kind: nodeField, obj: fv})
				}
			}
			g.refsInto(pkg, x.X, add)
			return
		}
		// Qualified identifier pkg.X.
		if obj, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok {
			add(taintNode{kind: nodeObj, obj: obj})
		}
	case *ast.CallExpr:
		g.callRefs(pkg, x, add)
	case *ast.IndexExpr:
		g.refsInto(pkg, x.X, add)
	case *ast.SliceExpr:
		g.refsInto(pkg, x.X, add)
	case *ast.StarExpr:
		g.refsInto(pkg, x.X, add)
	case *ast.UnaryExpr:
		g.refsInto(pkg, x.X, add)
	case *ast.BinaryExpr:
		g.refsInto(pkg, x.X, add)
		g.refsInto(pkg, x.Y, add)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				g.refsInto(pkg, kv.Value, add)
				continue
			}
			g.refsInto(pkg, elt, add)
		}
	case *ast.TypeAssertExpr:
		g.refsInto(pkg, x.X, add)
	}
}

// callRefs resolves what reading a call expression's value reads: the
// callee's result nodes for resolvable callees with known bodies, or a
// conservative union of the arguments for conversions, builtins and
// foreign functions.
func (g *taintGraph) callRefs(pkg *Package, call *ast.CallExpr, add func(taintNode)) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: the value passes through unchanged.
		for _, arg := range call.Args {
			g.refsInto(pkg, arg, add)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			for _, arg := range call.Args {
				g.refsInto(pkg, arg, add)
			}
			return
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		nres := 1
		if lit.Type.Results != nil {
			nres = lit.Type.Results.NumFields()
		}
		for i := 0; i < nres; i++ {
			add(taintNode{kind: nodeLitResult, lit: lit, idx: i})
		}
		return
	}
	callee, iface := g.mod.StaticCallee(pkg, call)
	switch {
	case callee == nil:
		for _, arg := range call.Args {
			g.refsInto(pkg, arg, add)
		}
	case iface || g.mod.Body(callee) != nil:
		nres := callee.Type().(*types.Signature).Results().Len()
		for i := 0; i < nres; i++ {
			add(taintNode{kind: nodeResult, fn: callee, idx: i})
		}
	default:
		// Foreign function: results are a function of the arguments.
		for _, arg := range call.Args {
			g.refsInto(pkg, arg, add)
		}
	}
}

// exprText renders a short name for an expression, for flow-note purposes.
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.SliceExpr:
		return exprText(x.X) + "[:]"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return "&" + exprText(x.X)
		}
	}
	return "expression"
}

// taintFinding is one source → sink chain discovered by the search.
type taintFinding struct {
	sink   *sinkSite
	source string
	hops   []Hop
}

// findLeaks runs BFS from every source root and reconstructs one shortest
// path per reached sink site, in sink registration (≈ position) order.
func (g *taintGraph) findLeaks() []taintFinding {
	type step struct {
		prev taintNode
		edge taintEdge
		root bool
	}
	pred := make(map[taintNode]step)
	queue := make([]taintNode, 0, len(g.roots))
	for _, r := range g.roots {
		if _, ok := pred[r]; ok {
			continue
		}
		pred[r] = step{root: true}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if g.sanitized[n] {
			continue
		}
		for _, e := range g.edges[n] {
			if _, ok := pred[e.to]; ok {
				continue
			}
			pred[e.to] = step{prev: n, edge: e}
			queue = append(queue, e.to)
		}
	}

	var out []taintFinding
	for _, sink := range g.sinks {
		if _, ok := pred[sink.node]; !ok {
			continue
		}
		var hops []Hop
		n := sink.node
		for {
			st := pred[n]
			if st.root {
				break
			}
			hops = append(hops, Hop{Pos: st.edge.pos, Note: st.edge.note})
			n = st.prev
		}
		// Reverse into source → sink order.
		for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
			hops[i], hops[j] = hops[j], hops[i]
		}
		out = append(out, taintFinding{sink: sink, source: g.rootD[n], hops: hops})
	}
	return out
}
