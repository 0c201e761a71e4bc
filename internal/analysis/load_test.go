package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// An external test package sees what its package's in-package test
// files declare (an export_test.go hook), as under `go test`; and when
// another import of the external package depends on the package under
// test, both keep the base variant, so their types stay one.
func TestLoadModuleExternalTestSeesExportTest(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n\ngo 1.24\n",
		// p_test calls what p's export_test.go declares.
		"p/p.go":           "package p\n\nvar hook func()\n",
		"p/export_test.go": "package p\n\nfunc SetHook(h func()) { hook = h }\n",
		"p/x_test.go":      "package p_test\n\nimport \"m/p\"\n\nvar _ = func() { p.SetHook(nil) }\n",
		// w_test also imports x, which imports w: w.T must be x's w.T.
		"w/w.go":           "package w\n\ntype T struct{}\n",
		"w/export_test.go": "package w\n\nfunc Hook() {}\n",
		"w/x_test.go":      "package w_test\n\nimport (\n\t\"m/w\"\n\t\"m/x\"\n)\n\nvar _ = func() { x.Take(w.T{}) }\n",
		"x/x.go":           "package x\n\nimport \"m/w\"\n\nfunc Take(w.T) {}\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := &Loader{IncludeTests: true}
	pkgs, err := l.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.Path] = true
	}
	for _, want := range []string{"m/p_test", "m/w_test"} {
		if !loaded[want] {
			t.Errorf("%s not loaded; got %v", want, loaded)
		}
	}
}
