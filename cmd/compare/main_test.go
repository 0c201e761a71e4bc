package main

import (
	"bytes"
	"strings"
	"testing"
)

func compare(args ...string) (string, error) {
	var out, errw bytes.Buffer
	err := run(append([]string{"-profile", "tiny", "-maxbatches", "2"}, args...), &out, &errw)
	return out.String(), err
}

// The verdict table has one row per strategy; bad input is a one-line
// error, never a panic.
func TestCompare(t *testing.T) {
	out, err := compare("-p", "4", "-backend", "des")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"bulk pipeline (replicated)", "bulk pipeline (overlapped)", "bulk pipeline (partitioned)",
		"quiver strategy (GPU)", "quiver strategy (UVA)", "1D-partitioned sampling", "bulk pipeline vs quiver:"} {
		if !strings.Contains(out, row) {
			t.Errorf("no %q row in:\n%s", row, out)
		}
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"p = 0", []string{"-p", "0"}, "p=0"},
		{"negative maxbatches", []string{"-maxbatches", "-3"}, "MaxBatches=-3"},
		{"unknown profile", []string{"-profile", "bogus"}, `unknown profile "bogus"`},
		{"unknown dataset", []string{"-dataset", "cora"}, "cora"},
		{"unknown topology", []string{"-topology", "torus"}, `unknown topology "torus"`},
		{"unknown flag", []string{"-faults", "1@0.1"}, "flag provided but not defined"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := compare(c.args...)
			if err == nil {
				t.Fatalf("accepted:\n%s", out)
			}
			if msg := err.Error(); !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line containing %q", msg, c.want)
			}
		})
	}
}
