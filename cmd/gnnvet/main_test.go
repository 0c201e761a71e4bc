package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func gnnvet(args ...string) (string, error) {
	var out, errw bytes.Buffer
	err := run(args, &out, &errw)
	return out.String(), err
}

// -list names every check; bad input is a one-line usage error, never a
// panic and never the findings verdict. None of these cases loads the
// module.
func TestGnnvet(t *testing.T) {
	out, err := gnnvet("-list")
	if err != nil || !strings.Contains(out, "parkwake") || !strings.Contains(out, "charging") {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-mutate"}, "flag provided but not defined"},
		{"expectallows not a number", []string{"-expectallows", "five"}, `invalid value "five"`},
		{"expectallows below -1", []string{"-expectallows", "-2", "./..."}, "-expectallows must be a marker count or -1"},
		{"missing package", []string{"./nonexistent"}, `only ./... (the whole module) is supported, got "./nonexistent"`},
		{"unknown check", []string{"-checks", "bogus", "./..."}, "bogus"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := gnnvet(c.args...)
			if err == nil {
				t.Fatalf("accepted:\n%s", out)
			}
			if msg := err.Error(); errors.Is(err, errFindings) || !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line containing %q", msg, c.want)
			}
		})
	}
}
