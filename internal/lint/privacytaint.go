package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PrivacyTaint statically proves the paper's privacy claim: raw telemetry —
// performance-counter, IPC and power readings — never crosses the federated
// wire. It is an interprocedural forward taint analysis over the whole
// module: values of the configured telemetry types (and the results of the
// configured accessor functions) are sources; the federated wire boundary —
// fed message payload construction, nn.EncodeParams inputs, and Write-style
// calls inside the wire packages — are sinks. The one sanctioned flow, the
// learned parameter vector leaving internal/nn through (*Network).Params,
// is an explicit allowlist entry: the results of allowlisted functions are
// clean by contract, which is exactly the declassification the paper's
// architecture performs (telemetry shapes the weights locally; only the
// weights travel).
//
// Every finding carries the full source → … → sink path, one position per
// hop, so a violation reads as a proof trace of the leak. A finding can be
// suppressed at the sink line with //fedlint:ignore privacytaint, but the
// sanctioned flow needs no suppression — it is allowlisted, not ignored.
type PrivacyTaint struct {
	// Config declares sources, sinks and the allowlist. The zero value
	// analyzes nothing; DefaultSuite installs DefaultPrivacyConfig.
	Config TaintConfig
}

// TaintConfig names the sources, sinks and sanctioned flows of a privacy
// taint analysis. Functions are named as go/types renders them
// (types.Func.FullName): "pkgpath.Func" for package functions and
// "(*pkgpath.Type).Method" / "(pkgpath.Type).Method" for methods. Types
// are "pkgpath.TypeName" and fields "pkgpath.TypeName.Field".
type TaintConfig struct {
	// SourceTypes lists telemetry types; every value of such a type (or a
	// pointer/slice/map/channel of it) is tainted, as is every field read.
	SourceTypes []string
	// SourceFuncs lists telemetry accessors; their results are tainted.
	SourceFuncs []string
	// SinkFuncs lists functions whose arguments must never be tainted
	// (e.g. the wire parameter encoder).
	SinkFuncs []string
	// SinkFields lists struct fields that become wire payloads; a tainted
	// write into such a field is a leak at the write site.
	SinkFields []string
	// WriterSinkPkgs lists import paths in which every io.Writer-shaped
	// method call (Write, WriteString, …) is a wire sink.
	WriterSinkPkgs []string
	// Allow lists the sanctioned declassification boundary: functions whose
	// results are clean by contract even though telemetry shaped them.
	Allow []string
}

// DefaultPrivacyConfig is the fedpower module's privacy boundary:
//
//	sources  sim.Observation, sim.Stats, trace.Entry, and the sim.Device
//	         accessors producing them (Step, Stats)
//	sinks    the fed wire message payloads (fed.message.params and the
//	         hierarchical relay sum fed.message.sum), the wire parameter
//	         encoders (nn.EncodeParams, nn.EncodeParamsInto, the fed codec
//	         payload encoder, the relay-frame encoder and the exact sums'
//	         wire encodings, Accum's and ParamSum's), and every
//	         Write-style call inside internal/fed
//	allowed  (*nn.Network).Params — the learned parameter vector, the only
//	         data the paper permits to leave a device
func DefaultPrivacyConfig() TaintConfig {
	return TaintConfig{
		SourceTypes: []string{
			"fedpower/internal/sim.Observation",
			"fedpower/internal/sim.Stats",
			"fedpower/internal/trace.Entry",
		},
		SourceFuncs: []string{
			"(*fedpower/internal/sim.Device).Step",
			"(*fedpower/internal/sim.Device).Stats",
		},
		SinkFuncs: []string{
			"fedpower/internal/nn.EncodeParams",
			"fedpower/internal/nn.EncodeParamsInto",
			"(*fedpower/internal/fed.codecState).encodePayload",
			"(*fedpower/internal/fed.codecState).writeRelay",
			"(*fedpower/internal/nn.Accum).AppendWire",
			"(*fedpower/internal/nn.ParamSum).AppendWire",
		},
		SinkFields: []string{
			"fedpower/internal/fed.message.params",
			"fedpower/internal/fed.message.sum",
		},
		WriterSinkPkgs: []string{
			"fedpower/internal/fed",
		},
		Allow: []string{
			"(*fedpower/internal/nn.Network).Params",
		},
	}
}

func (PrivacyTaint) Name() string { return "privacytaint" }

func (PrivacyTaint) Doc() string {
	return "interprocedural taint analysis: raw telemetry (observations, traces, power readings) must never reach the federated wire; only allowlisted model parameters may"
}

// Check analyzes a single package as a one-package module, which keeps the
// analyzer usable in per-package harnesses and unit fixtures. Whole-module
// runs go through CheckModule.
func (p PrivacyTaint) Check(pkg *Package) []Diagnostic {
	return p.CheckModule(NewModule([]*Package{pkg}))
}

// CheckModule runs the taint analysis over the whole module.
func (p PrivacyTaint) CheckModule(mod *Module) []Diagnostic {
	cfg, unresolved := p.Config.resolve(mod)
	var out []Diagnostic
	// An unresolved spec would silently weaken the theorem (e.g. a renamed
	// Observation type leaving the analysis vacuous), so it is itself a
	// finding — except on partial modules (unit fixtures) where foreign
	// specs legitimately cannot resolve; those runs resolve what they can.
	if len(mod.Pkgs) > 1 {
		for _, spec := range unresolved {
			out = append(out, Diagnostic{
				Analyzer: "privacytaint",
				Pos:      modulePos(mod),
				Message:  fmt.Sprintf("config spec %q matches nothing in the module; the privacy boundary it names no longer exists", spec),
			})
		}
	}
	if cfg.empty() {
		return out
	}
	g := newTaintGraph(mod, cfg)
	g.build()
	for _, leak := range g.findLeaks() {
		out = append(out, Diagnostic{
			Analyzer: "privacytaint",
			Pos:      leak.sink.pos,
			Message: fmt.Sprintf("raw telemetry reaches the federated wire: %s flows into %s (%d-hop path below); only allowlisted model parameters may cross",
				leak.source, leak.sink.desc, len(leak.hops)),
			Path: leak.hops,
		})
	}
	return out
}

// modulePos anchors module-level findings at the first file of the first
// package, so they carry a real, clickable position.
func modulePos(mod *Module) token.Position {
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			return pkg.Fset.Position(f.Package)
		}
	}
	return token.Position{}
}

func (c *resolvedTaint) empty() bool {
	return len(c.sourceTypes) == 0 && len(c.sourceFuncs) == 0
}

// resolve binds the config's name specs to the module's type-checker
// objects, returning the bound config and every spec that matched nothing.
func (c TaintConfig) resolve(mod *Module) (*resolvedTaint, []string) {
	r := &resolvedTaint{
		sourceTypes: make(map[*types.TypeName]bool),
		sourceFuncs: make(map[*types.Func]bool),
		sinkFuncs:   make(map[*types.Func]bool),
		sinkFields:  make(map[*types.Var]bool),
		writerPkgs:  make(map[string]bool),
		allow:       make(map[*types.Func]bool),
	}
	var unresolved []string

	// Index declared functions (including methods) by their FullName, and
	// named types by "pkgpath.Name".
	funcsByName := make(map[string]*types.Func)
	for fn := range mod.funcs {
		funcsByName[fn.FullName()] = fn
	}
	typesByName := make(map[string]*types.TypeName)
	for _, pkg := range mod.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				typesByName[pkg.Path+"."+name] = tn
			}
		}
	}

	resolveFuncs := func(specs []string, into map[*types.Func]bool) {
		for _, spec := range specs {
			if fn, ok := funcsByName[spec]; ok {
				into[fn] = true
			} else {
				unresolved = append(unresolved, spec)
			}
		}
	}
	resolveFuncs(c.SourceFuncs, r.sourceFuncs)
	resolveFuncs(c.SinkFuncs, r.sinkFuncs)
	resolveFuncs(c.Allow, r.allow)

	for _, spec := range c.SourceTypes {
		if tn, ok := typesByName[spec]; ok {
			r.sourceTypes[tn] = true
		} else {
			unresolved = append(unresolved, spec)
		}
	}

	for _, spec := range c.SinkFields {
		i := strings.LastIndex(spec, ".")
		if i < 0 {
			unresolved = append(unresolved, spec)
			continue
		}
		typeName, fieldName := spec[:i], spec[i+1:]
		tn, ok := typesByName[typeName]
		if !ok {
			unresolved = append(unresolved, spec)
			continue
		}
		strct, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			unresolved = append(unresolved, spec)
			continue
		}
		found := false
		for j := 0; j < strct.NumFields(); j++ {
			if strct.Field(j).Name() == fieldName {
				r.sinkFields[strct.Field(j)] = true
				found = true
				break
			}
		}
		if !found {
			unresolved = append(unresolved, spec)
		}
	}

	pkgPaths := make(map[string]bool, len(mod.Pkgs))
	for _, pkg := range mod.Pkgs {
		pkgPaths[pkg.Path] = true
	}
	for _, spec := range c.WriterSinkPkgs {
		if pkgPaths[spec] {
			r.writerPkgs[spec] = true
		} else {
			unresolved = append(unresolved, spec)
		}
	}

	sort.Strings(unresolved)
	return r, unresolved
}
