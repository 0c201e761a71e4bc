package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func datagen(args ...string) (string, error) {
	var out, errw bytes.Buffer
	err := run(args, &out, &errw)
	return out.String(), err
}

// A saved dataset reads back with the statistics it was described with;
// bad input is a one-line error, never a panic.
func TestDatagen(t *testing.T) {
	file := filepath.Join(t.TempDir(), "products.gnnds")
	saved, err := datagen("-profile", "tiny", "-dataset", "products", "-analyze", "-out", file)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := datagen("-in", file, "-analyze")
	if err != nil {
		t.Fatal(err)
	}
	if stats, _, _ := strings.Cut(saved, "  saved to "); stats != loaded || !strings.Contains(loaded, "triangles=") {
		t.Fatalf("described\n%s\nbut read back\n%s", saved, loaded)
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"-in missing file", []string{"-in", filepath.Join(t.TempDir(), "absent")}, "no such file"},
		{"-in not a dataset", []string{"-in", "main.go"}, "graphio"},
		{"-out without -dataset", []string{"-profile", "tiny", "-out", file}, "-out requires -dataset"},
		{"unknown profile", []string{"-profile", "huge"}, `unknown profile "huge"`},
		{"unknown dataset", []string{"-profile", "tiny", "-dataset", "cora"}, "cora"},
		{"unknown flag", []string{"-p", "4"}, "flag provided but not defined"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := datagen(c.args...)
			if err == nil {
				t.Fatalf("accepted:\n%s", out)
			}
			if msg := err.Error(); !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line containing %q", msg, c.want)
			}
		})
	}
}
