package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadexport keeps the library to what the programs (cmd/*, benchmark/:
// the `package main` directories) use. A package-level declaration of a
// library package is a finding when no non-test file uses it outside
// the declaration itself; an exported field of a named struct is one
// when no non-test code writes it (literal, assignment, address,
// pointer-method call). A method also counts as used when an interface
// the module declares or names has its name, or when it is String,
// Error or Unwrap. A program under <module>/examples/ is a walkthrough
// of the public facade, not a root: its uses count only for names the
// module's root package declares, and its field writes not at all.
// Packages named "…test" are exempt. It is direct use, not
// reachability: a name only dead code uses surfaces once that code goes.
var Deadexport = &Analyzer{
	Name: "deadexport",
	Doc:  "flag package-level declarations no non-test code uses and exported struct fields no non-test code writes",
	Run:  runDeadexport,
}

// useIndex is the module-wide record deadexport reads. Declarations are
// keyed by the position of their declaring identifier, which every
// type-checked variant of a package (base, test-augmented, imported)
// shares.
type useIndex struct {
	used, written map[token.Pos]bool
	ifaceMethods  map[string]bool
}

func newUseIndex() *useIndex {
	return &useIndex{used: map[token.Pos]bool{}, written: map[token.Pos]bool{},
		ifaceMethods: map[string]bool{"String": true, "Error": true, "Unwrap": true}}
}

// add records the uses, field writes and interface method names of the
// package's non-test files, one declaration (or spec) at a time.
func (u *useIndex) add(pkg *Package) {
	root, _, example := strings.Cut(pkg.Path, "/examples/")
	for _, f := range pkg.Files {
		if isTestFile(pkg.Fset, f) {
			continue
		}
		if example {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == root {
						u.used[declPos(obj)] = true
					}
				}
				return true
			})
			continue
		}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					u.walk(pkg.Info, spec)
				}
			} else {
				u.walk(pkg.Info, d)
			}
		}
	}
}

// walk records what one declaration uses. Uses of names it declares
// itself (recursion, a type's own fields) and a method's receiver do
// not count.
func (u *useIndex) walk(info *types.Info, decl ast.Node) {
	fd, _ := decl.(*ast.FuncDecl)
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FieldList:
			return fd == nil || n != fd.Recv
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				break
			}
			if p := declPos(obj); p < decl.Pos() || p >= decl.End() {
				u.used[p] = true
			}
			if tn, ok := obj.(*types.TypeName); ok {
				u.interfaceMethods(tn.Type())
			}
		case *ast.InterfaceType:
			u.interfaceMethods(info.TypeOf(n))
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, isStruct := t.Underlying().(*types.Struct)
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					u.markWrite(info, kv.Key)
				} else if isStruct {
					u.written[declPos(st.Field(i))] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				u.markWrite(info, lhs)
			}
		case *ast.IncDecStmt:
			u.markWrite(info, n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				u.markWrite(info, n.X)
			}
		case *ast.SelectorExpr:
			// A pointer method called on a field value takes its address.
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				recv := sel.Obj().Type().(*types.Signature).Recv().Type()
				if isPointer(recv) && !isPointer(info.TypeOf(n.X)) {
					u.markWrite(info, n.X)
				}
			}
		}
		return true
	})
}

// interfaceMethods records the method names of t when it is an
// interface.
func (u *useIndex) interfaceMethods(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			u.ifaceMethods[it.Method(i).Name()] = true
		}
	}
}

// markWrite marks the field a write target names: a selector x.F, or a
// literal's key F.
func (u *useIndex) markWrite(info *types.Info, e ast.Expr) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			u.written[declPos(sel.Obj())] = true
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.IsField() {
			u.written[declPos(v)] = true
		}
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.(*types.Pointer)
	return ok
}

// declPos is the position of the identifier that declares obj, through
// generic instantiation.
func declPos(obj types.Object) token.Pos {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin().Pos()
	case *types.Var:
		return o.Origin().Pos()
	}
	return obj.Pos()
}

func runDeadexport(pass *Pass) error {
	if pass.Pkg.Name() == "main" || strings.HasSuffix(pass.Pkg.Name(), "test") {
		return nil
	}
	u := pass.Facts.uses
	dead := func(id *ast.Ident, what string) {
		if id.Name != "_" && !u.used[id.Pos()] {
			pass.Reportf(id.Pos(), "%s %s has no non-test use: delete it, move it to a _test.go file, or allow-mark it naming its test users", what, id.Name)
		}
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				switch {
				case fd.Recv == nil && fd.Name.Name != "init":
					dead(fd.Name, "func")
				case fd.Recv != nil && !u.ifaceMethods[fd.Name.Name]:
					dead(fd.Name, "method")
				}
				continue
			}
			gd := d.(*ast.GenDecl)
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						dead(n, gd.Tok.String())
					}
				case *ast.TypeSpec:
					dead(s.Name, "type")
					if st, ok := s.Type.(*ast.StructType); ok && u.used[s.Name.Pos()] {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								if n.IsExported() && !u.written[n.Pos()] {
									pass.Reportf(n.Pos(), "field %s.%s is written by no non-test code: a knob only tests set", s.Name.Name, n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return nil
}
