package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func perfdiff(args ...string) (string, error) {
	var out, errw bytes.Buffer
	err := run(args, &out, &errw)
	return out.String(), err
}

// A baseline diffs clean against itself; usage and file errors are one
// line and distinct from the gate's verdict.
func TestPerfdiff(t *testing.T) {
	const baseline = "../../BENCH_0013.json"
	out, err := perfdiff(baseline, baseline)
	if err != nil || !strings.Contains(out, "all shared workloads within gate thresholds") {
		t.Fatalf("self-diff: %v\n%s", err, out)
	}
	wrongSchema := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(wrongSchema, []byte(`{"schema": "perf/v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"no arguments", nil, "want 2 baseline files, got 0"},
		{"three arguments", []string{baseline, baseline, baseline}, "want 2 baseline files, got 3"},
		{"missing file", []string{baseline, filepath.Join(t.TempDir(), "absent.json")}, "no such file"},
		{"wrong schema", []string{wrongSchema, baseline}, `has schema "perf/v0"`},
		{"not JSON", []string{"main.go", baseline}, "bad perf baseline"},
		{"unknown flag", []string{"-tolerance", "2"}, "flag provided but not defined"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := perfdiff(c.args...)
			if err == nil {
				t.Fatalf("accepted:\n%s", out)
			}
			if msg := err.Error(); errors.Is(err, errBreach) || !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line containing %q", msg, c.want)
			}
		})
	}
}
