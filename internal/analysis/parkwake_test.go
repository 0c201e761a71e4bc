package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParkCallsNameDeclaredFunctions: every parkCalls key names a
// function or method its package declares in non-test code. A key left
// behind by a rename or a deletion seeds nothing, and the call it stood
// for would go unchecked under its new name.
func TestParkCallsNameDeclaredFunctions(t *testing.T) {
	declared := map[string]map[parkKey]bool{}
	for key := range parkCalls {
		if declared[key.pkg] == nil {
			declared[key.pkg] = declaredFuncs(t, key.pkg)
		}
		if !declared[key.pkg][key] {
			t.Errorf("parkCalls names %s, which %s's non-test code does not declare", key.String(), key.pkg)
		}
	}
}

func (k parkKey) String() string {
	if k.recv == "" {
		return k.name
	}
	return k.recv + "." + k.name
}

// declaredFuncs parses the non-test files of module package pkg and
// returns the key of every function and method they declare.
func declaredFuncs(t *testing.T, pkg string) map[parkKey]bool {
	t.Helper()
	dir := filepath.Join("..", "..", strings.TrimPrefix(pkg, "repro/"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[parkKey]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				out[parkKey{pkg, recvName(fn), fn.Name.Name}] = true
			}
		}
	}
	return out
}

// recvName is the name of fn's receiver type, "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	x := fn.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
