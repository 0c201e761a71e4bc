// Package analysis is a self-contained static-analysis framework plus
// the gnnvet analyzer suite that mechanically enforces the simulator's
// determinism, charging-path and park/wake invariants.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) so the suite could be rebased onto
// the real multichecker if the dependency ever becomes available; the
// build environment here is offline and stdlib-only, so the framework
// reimplements the thin slice it needs on go/ast + go/types: a module
// loader (load.go), a suppression mechanism (allow.go) and a fixture
// test driver (analysistest).
//
// Every invariant an analyzer guards was violated at least once before
// it existed — see DESIGN.md "Static analysis & invariants" for the
// analyzer-by-analyzer history.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single package and
// reports findings through the pass; suppression markers are applied
// by the driver, not the analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, attributed to the check that produced it.
type Diagnostic struct {
	Pos     token.Pos
	Check   string
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the module-wide fact base (facts.go): per-function
	// summaries computed before any analyzer runs, spanning every
	// package in import order. Graph is this package's static call
	// graph. Both are non-nil under RunModule.
	Facts *FactBase
	Graph *CallGraph

	diags *[]Diagnostic
}

// Reportf records a finding at pos under the pass's analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     pos,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Filename returns the file name a node belongs to (base name only).
func (p *Pass) Filename(n ast.Node) string {
	full := p.Fset.Position(n.Pos()).Filename
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}

// IsTestFile reports whether the node lives in a _test.go file.
func (p *Pass) IsTestFile(n ast.Node) bool {
	return strings.HasSuffix(p.Fset.Position(n.Pos()).Filename, "_test.go")
}

// WithStack walks every file, invoking fn with each node and the stack
// of its ancestors (outermost first; the node itself is not included).
// fn returning false prunes the subtree.
func WithStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				// Not descending: Inspect sends no matching nil, so
				// nothing is pushed.
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

// funcObj resolves an identifier (or the Sel of a selector) to the
// *types.Func it uses, or nil.
func funcObj(info *types.Info, id *ast.Ident) *types.Func {
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeFunc returns the *types.Func a call expression invokes
// (through selectors and parens), or nil for builtins, conversions and
// indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return funcObj(info, fun)
	case *ast.SelectorExpr:
		return funcObj(info, fun.Sel)
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return funcObj(info, id)
		}
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			return funcObj(info, sel.Sel)
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return funcObj(info, id)
		}
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			return funcObj(info, sel.Sel)
		}
	}
	return nil
}

// namedIn reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func namedIn(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == name &&
		obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// recvTypeName returns the receiver's named-type name and package path
// for a method, or "" for package-level functions.
func recvTypeName(fn *types.Func) (pkgPath, name string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if fn.Pkg() != nil {
			return fn.Pkg().Path(), ""
		}
		return "", ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path(), named.Obj().Name()
	}
	return "", ""
}

// Analyzers is the gnnvet suite in reporting order.
var Analyzers = []*Analyzer{
	Walltime,
	GlobalRand,
	Charging,
	ParkWake,
	MapOrder,
	Benchpool,
	ArenaEscape,
	Faultseam,
	Deadexport,
	CommitSeam,
}

func knownChecks() map[string]bool {
	known := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	return known
}

// ByName resolves a comma-separated -checks selection against the
// suite, preserving suite order; an unknown name is an error.
func ByName(sel string) ([]*Analyzer, error) {
	if sel == "" {
		return Analyzers, nil
	}
	want := map[string]bool{}
	for _, n := range strings.Split(sel, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range Analyzers {
			if a.Name == n {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown check %q", n)
		}
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range Analyzers {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// PkgDiags pairs one package with its surviving findings.
type PkgDiags struct {
	Pkg   *Package
	Diags []Diagnostic
}

// RunModule runs the suite over a whole loaded module. Facts are
// computed first, package by package in import order (so a package's
// out-of-package callees are summarized before its own atoms
// propagate), then every analyzer runs per package against the
// module-wide fact base. Results follow the input package order; the
// marker count (well-formed //gnnvet:allow sites module-wide) backs
// gnnvet's -expectallows gate.
func RunModule(pkgs []*Package, analyzers []*Analyzer) (results []PkgDiags, base *FactBase, markers int, err error) {
	known := knownChecks()
	type prep struct {
		allow      *allowIndex
		allowDiags []Diagnostic
		graph      *CallGraph
	}
	preps := make(map[*Package]*prep, len(pkgs))
	base = NewFactBase()
	for _, pkg := range topoOrder(pkgs) {
		allow, adiags := ParseAllows(pkg.Fset, pkg.Files, known)
		g := BuildCallGraph(pkg, base.taken)
		base.AddPackage(pkg, allow, g)
		preps[pkg] = &prep{allow, adiags, g}
		markers += allow.Markers()
	}
	for _, pkg := range pkgs {
		pr := preps[pkg]
		diags := pr.allowDiags
		more, err := runAnalyzers(pkg, analyzers, pr.allow, base, pr.graph)
		if err != nil {
			return nil, nil, 0, err
		}
		diags = append(diags, more...)
		sortDiags(diags)
		results = append(results, PkgDiags{Pkg: pkg, Diags: diags})
	}
	return results, base, markers, nil
}

// topoOrder orders packages so that imports come before importers,
// considering only edges within the given set. The seen-guard makes
// apparent cycles (an augmented test variant whose _test.go files
// close an import loop) terminate rather than recurse forever.
func topoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	seen := make(map[*Package]bool, len(pkgs))
	out := make([]*Package, 0, len(pkgs))
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, f := range p.Files {
			for _, im := range f.Imports {
				dep := strings.Trim(im.Path.Value, `"`)
				if d := byPath[dep]; d != nil && d != p {
					visit(d)
				}
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

func runAnalyzers(pkg *Package, analyzers []*Analyzer, allow *allowIndex, base *FactBase, g *CallGraph) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     base,
			Graph:     g,
			diags:     &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
		diags = append(diags, allow.Filter(pkg.Fset, raw)...)
	}
	return diags, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		if diags[i].Check != diags[j].Check {
			return diags[i].Check < diags[j].Check
		}
		return diags[i].Message < diags[j].Message
	})
}
