// Package analysistest runs one analyzer over a fixture directory and
// checks its findings against want-annotations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the in-repo
// framework.
//
// A fixture file marks each line it expects findings on with a
// trailing comment of quoted regexes:
//
//	sum += v // want `float accumulation` `second finding on this line`
//
// Every diagnostic must match a want on its line and every want must
// be matched — unexpected and missing findings both fail the test.
// Suppression markers are honored exactly as in gnnvet (the driver
// shares analysis.RunModule), so fixtures exercise the allowed path
// too: a line carrying //gnnvet:allow <check> — <reason> and no want
// asserts the marker silences the finding.
package analysistest

import (
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads dir as a single package under importPath, applies the
// analyzer (with suppression markers honored), and compares findings
// with the fixture's want-annotations. The import path matters:
// several analyzers scope themselves by package path, so e.g. a
// charging fixture must load as repro/internal/cluster.
func Run(t *testing.T, a *analysis.Analyzer, dir, importPath string) {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := analysis.LoadFixture(fset, dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	check(t, a, dir, fset, []*analysis.Package{pkg})
}

// RunModule is Run over a fixture module (dir holds a go.mod), test
// files included, for checks that look across packages (deadexport).
func RunModule(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	loader := &analysis.Loader{IncludeTests: true}
	pkgs, err := loader.LoadModule(dir)
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	check(t, a, dir, loader.Fset, pkgs)
}

// check runs the analyzer as gnnvet does and matches its findings
// against the packages' want-annotations.
func check(t *testing.T, a *analysis.Analyzer, dir string, fset *token.FileSet, pkgs []*analysis.Package) {
	t.Helper()
	results, _, _, err := analysis.RunModule(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	wants := map[lineKey][]*regexp.Regexp{}
	got := map[lineKey][]string{}
	for _, res := range results {
		for k, w := range parseWants(t, fset, res.Pkg) {
			wants[k] = append(wants[k], w...)
		}
		for _, d := range res.Diags {
			pos := fset.Position(d.Pos)
			k := lineKey{pos.Filename, pos.Line}
			got[k] = append(got[k], d.Message)
		}
	}

	keys := map[lineKey]bool{}
	for k := range wants {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]lineKey, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].file != sorted[j].file {
			return sorted[i].file < sorted[j].file
		}
		return sorted[i].line < sorted[j].line
	})

	for _, k := range sorted {
		matchLine(t, k, wants[k], got[k])
	}
}

type lineKey struct {
	file string
	line int
}

// matchLine pairs each diagnostic on a line with a distinct want
// regex.
func matchLine(t *testing.T, k lineKey, wants []*regexp.Regexp, msgs []string) {
	t.Helper()
	used := make([]bool, len(wants))
outer:
	for _, msg := range msgs {
		for i, w := range wants {
			if !used[i] && w.MatchString(msg) {
				used[i] = true
				continue outer
			}
		}
		t.Errorf("%s:%d: unexpected finding: %s", k.file, k.line, msg)
	}
	for i, w := range wants {
		if !used[i] {
			t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, w)
		}
	}
}

// wantRe pulls the quoted regexes off a want comment; both `...` and
// "..." quoting are accepted.
var wantArgRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func parseWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package) map[lineKey][]*regexp.Regexp {
	t.Helper()
	wants := map[lineKey][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				args := c.Text[idx+len("// want "):]
				matches := wantArgRe.FindAllString(args, -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted regexes: %s", k.file, k.line, c.Text)
				}
				for _, m := range matches {
					var pat string
					if m[0] == '`' {
						pat = m[1 : len(m)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(m)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", k.file, k.line, m, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", k.file, k.line, pat, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}
