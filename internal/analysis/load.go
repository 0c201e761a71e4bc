package analysis

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
	"strings"
)

// Package is one type-checked package ready for analysis. When test
// files exist, Files includes them (the in-package test variant, like
// `go vet` analyzes) and an external _test package becomes a Package
// of its own.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader type-checks a module from source with no toolchain
// dependency beyond the standard library: module packages are parsed
// and checked in dependency order, stdlib imports resolve through
// go/importer's source importer (GOROOT), and anything else is a load
// error — the module is dependency-free by policy.
type Loader struct {
	Fset *token.FileSet
	// IncludeTests adds _test.go files: in-package test files augment
	// their package, external foo_test files form their own package.
	IncludeTests bool

	modPath string
	root    string
	std     types.ImporterFrom
	// built memoizes the fully-checked base (non-test) variant of each
	// package — types.Info included — so a package is type-checked
	// exactly once for both import resolution and analysis output
	// (packages without in-package test files need no re-check).
	built map[string]*Package
	// underTest is the test-augmented variant of the package whose
	// external test package is being checked: like `go test`, the
	// external package imports it, so names an export_test.go file
	// declares resolve. It stays nil when another module import of the
	// external package depends on the package under test: `go test`
	// would recompile that import against the augmented variant, which
	// the loader does not, so both sides keep the base variant.
	underTest *Package
}

type dirPkg struct {
	dir, path string
	files     []*ast.File // non-test
	inTest    []*ast.File // _test.go, package foo
	extTest   []*ast.File // _test.go, package foo_test
	deps      []string    // module-internal imports of files
}

// LoadModule loads every package under the module rooted at root (the
// directory containing go.mod).
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	if l.Fset == nil {
		l.Fset = token.NewFileSet()
	}
	l.root = root
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("gnnvet: %w (run from the module root)", err)
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			l.modPath = strings.TrimSpace(rest)
			break
		}
	}
	if l.modPath == "" {
		return nil, fmt.Errorf("gnnvet: no module line in %s/go.mod", root)
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	l.built = map[string]*Package{}

	dirs, err := l.scan()
	if err != nil {
		return nil, err
	}
	byPath := map[string]*dirPkg{}
	order := make([]string, 0, len(dirs))
	for _, d := range dirs {
		byPath[d.path] = d
		order = append(order, d.path)
	}
	sort.Strings(order)

	// Base variants first, dependency order (checkBase recurses).
	for _, p := range order {
		if _, err := l.checkBase(byPath, p, nil); err != nil {
			return nil, err
		}
	}

	var out []*Package
	for _, p := range order {
		d := byPath[p]
		var augmented *Package
		switch {
		case l.IncludeTests && len(d.inTest) > 0:
			// Only here is a second type-check of the same files
			// unavoidable: the test-augmented variant (what `go test`
			// compiles) is a different package body. Imports still
			// resolve against base variants, like the real toolchain.
			files := append(append([]*ast.File{}, d.files...), d.inTest...)
			pkg, err := l.check(p, files, byPath)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
			augmented = pkg
		case len(d.files) > 0:
			// The base variant was already checked (with full Info)
			// during the dependency pass — reuse it.
			out = append(out, l.built[p])
		}
		if l.IncludeTests && len(d.extTest) > 0 {
			if augmented != nil && !importsReach(byPath, d.extTest, p) {
				l.underTest = augmented
			}
			pkg, err := l.check(p+"_test", d.extTest, byPath)
			l.underTest = nil
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
	}
	return out, nil
}

// importsReach reports whether a module import of files other than
// target depends on target, directly or through its own imports.
func importsReach(byPath map[string]*dirPkg, files []*ast.File, target string) bool {
	seen := map[string]bool{target: true}
	var reach func(path string) bool
	reach = func(path string) bool {
		if path == target {
			return true
		}
		if seen[path] || byPath[path] == nil {
			return false
		}
		seen[path] = true
		for _, dep := range byPath[path].deps {
			if reach(dep) {
				return true
			}
		}
		return false
	}
	for _, af := range files {
		for _, im := range af.Imports {
			if ip := strings.Trim(im.Path.Value, `"`); ip != target && reach(ip) {
				return true
			}
		}
	}
	return false
}

// scan walks the module for directories holding Go files and parses
// them. testdata, hidden and underscore directories are skipped, as
// anywhere in the Go toolchain.
func (l *Loader) scan() ([]*dirPkg, error) {
	var dirs []*dirPkg
	err := filepath.Walk(l.root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		base := filepath.Base(p)
		if p != l.root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		names, err := filepath.Glob(filepath.Join(p, "*.go"))
		if err != nil || len(names) == 0 {
			return nil
		}
		sort.Strings(names)
		rel, _ := filepath.Rel(l.root, p)
		ip := l.modPath
		if rel != "." {
			ip = l.modPath + "/" + filepath.ToSlash(rel)
		}
		d := &dirPkg{dir: p, path: ip}
		for _, name := range names {
			// Like the compiler, see one platform's file set: a package
			// may define a function once per GOARCH.
			if ok, err := build.Default.MatchFile(p, filepath.Base(name)); err != nil {
				return fmt.Errorf("gnnvet: %w", err)
			} else if !ok {
				continue
			}
			af, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("gnnvet: %w", err)
			}
			switch {
			case strings.HasSuffix(af.Name.Name, "_test"):
				d.extTest = append(d.extTest, af)
			case strings.HasSuffix(name, "_test.go"):
				d.inTest = append(d.inTest, af)
			default:
				d.files = append(d.files, af)
			}
			if !strings.HasSuffix(name, "_test.go") {
				for _, im := range af.Imports {
					dep := strings.Trim(im.Path.Value, `"`)
					if dep == l.modPath || strings.HasPrefix(dep, l.modPath+"/") {
						d.deps = append(d.deps, dep)
					}
				}
			}
		}
		dirs = append(dirs, d)
		return nil
	})
	return dirs, err
}

// checkBase builds (memoized) the non-test variant of a module
// package, recursing into module-internal imports first.
func (l *Loader) checkBase(byPath map[string]*dirPkg, path string, trail []string) (*types.Package, error) {
	if p, ok := l.built[path]; ok {
		return p.Types, nil
	}
	d := byPath[path]
	if d == nil {
		return nil, fmt.Errorf("gnnvet: import %q not found in module", path)
	}
	for _, t := range trail {
		if t == path {
			return nil, fmt.Errorf("gnnvet: import cycle through %q", path)
		}
	}
	trail = append(trail, path)
	for _, dep := range d.deps {
		if dep == path {
			continue
		}
		if _, err := l.checkBase(byPath, dep, trail); err != nil {
			return nil, err
		}
	}
	pkg, err := l.check(path, d.files, byPath)
	if err != nil {
		return nil, err
	}
	l.built[path] = pkg
	return pkg.Types, nil
}

// check type-checks one file set as the package at path.
func (l *Loader) check(path string, files []*ast.File, byPath map[string]*dirPkg) (*Package, error) {
	var errs []error
	conf := types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) {
			return l.importPkg(byPath, ip)
		}),
		Error: func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("gnnvet: type-checking %s: %v (first of %d)", path, errs[0], len(errs))
	}
	dir := ""
	if len(files) > 0 {
		dir = filepath.Dir(l.Fset.Position(files[0].Pos()).Filename)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// importPkg resolves an import: module-internal paths against the base
// variants (building on demand) — the package under test, from its
// external test package, against its test-augmented variant — "unsafe"
// specially, everything else through the stdlib source importer.
func (l *Loader) importPkg(byPath map[string]*dirPkg, path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.underTest != nil && path == l.underTest.Path {
		return l.underTest.Types, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		return l.checkBase(byPath, path, nil)
	}
	return l.std.ImportFrom(path, l.root, 0)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// LoadFixture type-checks a single directory of fixture files as one
// package under the given import path — the analysistest entry point.
// The import path matters because several analyzers scope themselves
// by package path (charging: repro/internal/cluster; parkwake: the
// cluster-driven packages).
func LoadFixture(fset *token.FileSet, dir, importPath string) (*Package, error) {
	l := &Loader{Fset: fset, modPath: "\x00none"} // no module-internal imports in fixtures
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	l.root = dir
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("gnnvet: no fixture files in %s", dir)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		af, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	return l.check(importPath, files, nil)
}
