package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked, non-test package of the module under
// analysis. Test files are excluded on purpose: the enforced invariants
// concern shipped code, and tests legitimately use wall clocks, goroutine
// shorthand and exact comparisons.
type Package struct {
	// Path is the import path, e.g. "fedpower/internal/fed".
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset is shared by every package of one LoadModule call.
	Fset *token.FileSet
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression and object resolution.
	Info *types.Info
}

// IsCommand reports whether the package builds an executable; analyzers
// scoped to "library packages" skip commands and examples.
func (p *Package) IsCommand() bool {
	return len(p.Files) > 0 && p.Files[0].Name.Name == "main"
}

// LoadModule locates the Go module containing root (walking upwards to
// go.mod), parses every non-test package beneath the module root, and
// type-checks them in dependency order. Intra-module imports resolve
// against the freshly checked packages; standard-library imports resolve
// through the toolchain's export data.
func LoadModule(root string) ([]*Package, error) {
	modRoot, modPath, err := findModule(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	dirs, err := packageDirs(modRoot)
	if err != nil {
		return nil, err
	}

	type rawPkg struct {
		path  string
		dir   string
		files []*ast.File
		deps  []string
	}
	raw := make(map[string]*rawPkg)
	for _, dir := range dirs {
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		p := &rawPkg{path: path, dir: dir, files: files}
		for _, f := range files {
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if ipath == modPath || strings.HasPrefix(ipath, modPath+"/") {
					p.deps = append(p.deps, ipath)
				}
			}
		}
		raw[path] = p
	}

	order, err := topoSort(raw, func(p *rawPkg) (string, []string) { return p.path, p.deps })
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		fset:    fset,
		modPath: modPath,
		module:  make(map[string]*types.Package),
		std:     importer.ForCompiler(fset, "gc", nil),
	}
	var pkgs []*Package
	for _, path := range order {
		rp := raw[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, rp.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
		}
		imp.module[path] = tpkg
		pkgs = append(pkgs, &Package{
			Path:  path,
			Dir:   rp.dir,
			Fset:  fset,
			Files: rp.files,
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}

// findModule walks upwards from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			path := modulePath(string(data))
			if path == "" {
				return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return d, path, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// packageDirs returns every directory beneath root that may hold a package,
// skipping VCS metadata, testdata, vendored code and hidden directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test Go files of one directory.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		// Only the files the build would compile for this GOOS/GOARCH:
		// a kernel_amd64.go and its !amd64 counterpart declare the same
		// names, and the amd64 one is the declaration of assembly.
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, fmt.Errorf("lint: build constraints of %s: %w", filepath.Join(dir, n), err)
		} else if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(dir, n), err)
		}
		files = append(files, f)
	}
	return files, nil
}

// topoSort orders packages so every dependency precedes its importers.
func topoSort[T any](m map[string]*T, keyDeps func(*T) (string, []string)) ([]string, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(m))
	var order []string
	var visit func(string) error
	visit = func(k string) error {
		switch color[k] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle through %s", k)
		}
		color[k] = grey
		_, deps := keyDeps(m[k])
		for _, d := range deps {
			if _, ok := m[d]; !ok {
				return fmt.Errorf("lint: %s imports %s, which has no source under the module root", k, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		color[k] = black
		order = append(order, k)
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := visit(k); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves intra-module imports against already-checked
// packages and everything else via the toolchain's export data, falling
// back to type-checking the standard library from source when export data
// is unavailable (e.g. a stripped-down toolchain image).
type moduleImporter struct {
	fset    *token.FileSet
	modPath string
	module  map[string]*types.Package
	std     types.Importer
	src     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		if pkg, ok := m.module[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("lint: internal import %s not yet checked (dependency order bug)", path)
	}
	pkg, err := m.std.Import(path)
	if err == nil {
		return pkg, nil
	}
	if m.src == nil {
		m.src = importer.ForCompiler(m.fset, "source", nil)
	}
	if pkg, srcErr := m.src.Import(path); srcErr == nil {
		return pkg, nil
	}
	return nil, err
}
