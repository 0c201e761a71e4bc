// Command gnnvet is the repo's invariant checker: a multichecker over
// the internal/analysis suite. It mechanically enforces what the
// goldens and the perf gate only observe after the fact — that every
// run is a pure function of its config (walltime, globalrand,
// maporder), that all collective cost flows through the single
// charging path (charging), that all blocking is backend-neutral
// (parkwake), that arena-backed buffers stay within their epoch
// (arenaescape), and that fault-injection plans are constructed only
// behind the FaultPlan seam (faultseam). Since PR 9 the suite is
// interprocedural: a call-graph
// facts layer summarizes every function in the module, so wrapping a
// violation in a helper — even one in another package — no longer
// hides it.
//
// Usage:
//
//	go run ./cmd/gnnvet ./...
//	go run ./cmd/gnnvet -checks charging,parkwake ./...
//	go run ./cmd/gnnvet -sarif gnnvet.sarif -expectallows 5 ./...
//
// gnnvet always analyzes the whole module containing the working
// directory (test files included); the ./... argument is accepted for
// familiarity. Exit status: 0 clean, 1 findings, 2 usage or load
// failure. Findings are suppressed only by an audited marker:
//
//	//gnnvet:allow <check> — <reason>
//
// on the flagged line or the line above; a marker without a reason (or
// naming an unknown check) is itself a finding. -expectallows N fails
// the run when the module-wide count of well-formed markers differs
// from N, so CI notices silent suppression growth. -json writes the
// findings as a JSON array to a file ("-" for stdout); -sarif writes
// SARIF 2.1.0 for diff annotation, with the engine's fact base
// embedded as a run property.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cliutil"
)

// errFindings is the checker's verdict (exit 1), as opposed to a usage
// or load failure (exit 2).
var errFindings = errors.New("check failed")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gnnvet:", err)
		if errors.Is(err, errFindings) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gnnvet", flag.ContinueOnError)
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list the available checks and exit")
	jsonOut := fs.String("json", "", "write findings as JSON to this file (\"-\" for stdout)")
	sarifOut := fs.String("sarif", "", "write findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
	expectAllows := fs.Int("expectallows", -1, "fail unless the module-wide //gnnvet:allow marker count equals this (-1 disables)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: gnnvet [-checks c1,c2] [-json f] [-sarif f] [-expectallows n] [./...]\n")
		fs.PrintDefaults()
	}
	if help, err := cliutil.ParseFlags(fs, args, stderr); help || err != nil {
		return err
	}

	if *list {
		for _, a := range analysis.Analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	for _, arg := range fs.Args() {
		if arg != "./..." && arg != "." {
			return fmt.Errorf("only ./... (the whole module) is supported, got %q", arg)
		}
	}
	if *expectAllows < -1 {
		return fmt.Errorf("-expectallows must be a marker count or -1 (off), got %d", *expectAllows)
	}
	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		return err
	}

	root, err := moduleRoot()
	if err != nil {
		return err
	}
	loader := &analysis.Loader{IncludeTests: true}
	pkgs, err := loader.LoadModule(root)
	if err != nil {
		return err
	}

	results, facts, markers, err := analysis.RunModule(pkgs, analyzers)
	if err != nil {
		return err
	}

	var findings []finding
	for _, res := range results {
		for _, d := range res.Diags {
			pos := res.Pkg.Fset.Position(d.Pos)
			name := pos.Filename
			if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = filepath.ToSlash(rel)
			}
			findings = append(findings, finding{
				File: name, Line: pos.Line, Column: pos.Column,
				Check: d.Check, Message: d.Message, Package: res.Pkg.Path,
			})
		}
	}

	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Check)
	}
	if err := writeMachine(stdout, *jsonOut, *sarifOut, findings, facts); err != nil {
		return err
	}
	if *expectAllows >= 0 && markers != *expectAllows {
		return fmt.Errorf("%w: module has %d //gnnvet:allow marker(s), expected %d — if a new suppression is justified, update the count in .github/workflows/ci.yml alongside its audit",
			errFindings, markers, *expectAllows)
	}
	if len(findings) > 0 {
		return fmt.Errorf("%w: %d finding(s)", errFindings, len(findings))
	}
	return nil
}

// finding is the JSON shape of one diagnostic.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
	Package string `json:"package"`
}

func writeMachine(stdout io.Writer, jsonOut, sarifOut string, findings []finding, facts *analysis.FactBase) error {
	if jsonOut != "" {
		if findings == nil {
			findings = []finding{} // emit [], not null
		}
		blob, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			return err
		}
		if err := writeOut(stdout, jsonOut, append(blob, '\n')); err != nil {
			return err
		}
	}
	if sarifOut != "" {
		blob, err := json.MarshalIndent(sarifLog(findings, facts), "", "  ")
		if err != nil {
			return err
		}
		if err := writeOut(stdout, sarifOut, append(blob, '\n')); err != nil {
			return err
		}
	}
	return nil
}

func writeOut(stdout io.Writer, dest string, blob []byte) error {
	if dest == "-" {
		_, err := stdout.Write(blob)
		return err
	}
	return os.WriteFile(dest, blob, 0o644)
}

// sarifLog renders the minimal SARIF 2.1.0 document CI annotation
// needs: one run, one rule per analyzer, one result per finding, and
// the serialized fact base as a run property so a reviewer can see
// what the engine concluded about every function.
func sarifLog(findings []finding, facts *analysis.FactBase) map[string]any {
	rules := make([]map[string]any, 0, len(analysis.Analyzers))
	for _, a := range analysis.Analyzers {
		rules = append(rules, map[string]any{
			"id":               a.Name,
			"shortDescription": map[string]any{"text": a.Doc},
		})
	}
	results := make([]map[string]any, 0, len(findings))
	for _, f := range findings {
		results = append(results, map[string]any{
			"ruleId":  f.Check,
			"level":   "error",
			"message": map[string]any{"text": f.Message},
			"locations": []map[string]any{{
				"physicalLocation": map[string]any{
					"artifactLocation": map[string]any{"uri": f.File},
					"region": map[string]any{
						"startLine":   f.Line,
						"startColumn": f.Column,
					},
				},
			}},
		})
	}
	props := map[string]any{}
	if facts != nil {
		props["gnnvetFacts"] = facts.Export()
	}
	return map[string]any{
		"$schema": "https://json.schemastore.org/sarif-2.1.0.json",
		"version": "2.1.0",
		"runs": []map[string]any{{
			"tool": map[string]any{
				"driver": map[string]any{
					"name":           "gnnvet",
					"informationUri": "https://example.invalid/gnnvet",
					"rules":          rules,
				},
			},
			"results":    results,
			"properties": props,
		}},
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
