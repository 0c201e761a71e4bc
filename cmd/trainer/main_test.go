package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graphio"
)

// trainer runs the CLI in-process on the tiny products analog and
// returns what it printed.
func trainer(args ...string) (string, error) {
	var out, errw bytes.Buffer
	err := run(append([]string{"-dataset", "products", "-profile", "tiny", "-epochs", "1"}, args...), &out, &errw)
	return out.String(), err
}

// Every combination the flags can express either trains — printing the
// epoch table and an accuracy — or returns a one-line named error.
func TestFlagCombinations(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string // a line only this configuration prints
	}{
		{"defaults", nil, "p=4 c=1 sampler=sage algorithm=replicated"},
		{"replicated c=2 bulk", []string{"-p", "4", "-c", "2", "-k", "2"}, "bulk size clamped up from k=2 to 4"},
		{"partitioned overlapped, contended, des", []string{"-p", "8", "-c", "2", "-algorithm", "partitioned", "-overlap",
			"-topology", "oversub", "-allreduce", "ring", "-alltoall", "pairwise"}, "algorithm=partitioned"},
		{"ladies", []string{"-sampler", "ladies"}, "sampler=ladies"},
		{"fastgcn hier", []string{"-p", "8", "-sampler", "fastgcn", "-allreduce", "hier"}, "sampler=fastgcn"},
		{"fault recovered from a checkpoint", []string{"-p", "4", "-epochs", "3", "-faults", "2@0.0002", "-ckpt-interval", "1"},
			"recovery: 2 attempt(s), 1 failure(s) fired"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := trainer(c.args...)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "test accuracy:") || !strings.Contains(out, c.want) {
				t.Fatalf("no accuracy line, or no %q:\n%s", c.want, out)
			}
		})
	}
	// Every sampler of the table trains under both algorithms.
	for _, e := range core.Samplers {
		for _, algorithm := range []string{"replicated", "partitioned"} {
			t.Run(e.Key+" "+algorithm, func(t *testing.T) {
				out, err := trainer("-p", "4", "-c", "2", "-sampler", e.Key, "-algorithm", algorithm)
				if err != nil {
					t.Fatal(err)
				}
				if want := "sampler=" + e.Key + " algorithm=" + algorithm; !strings.Contains(out, "test accuracy:") || !strings.Contains(out, want) {
					t.Fatalf("no accuracy line, or no %q:\n%s", want, out)
				}
			})
		}
	}
	for _, c := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"p = 0", []string{"-p", "0"}, "p=0"},
		{"c does not divide p", []string{"-p", "4", "-c", "3"}, "must divide"},
		{"negative c", []string{"-p", "2", "-c", "-3"}, "replication factor C=-3"},
		{"negative c under autotune", []string{"-p", "2", "-c", "-3", "-autotune"}, "replication factor C=-3"},
		{"partitioned c^2 does not divide p", []string{"-p", "8", "-c", "4", "-algorithm", "partitioned"}, "c^2 | p"},
		{"negative epochs", []string{"-epochs", "-1"}, "negative epoch count"},
		{"zero epochs", []string{"-epochs", "0"}, "bad -epochs 0"},
		{"zero learning rate", []string{"-lr", "0"}, "bad -lr 0"},
		{"infinite learning rate", []string{"-lr", "Inf"}, "learning rate +Inf: must be positive and finite"},
		{"zero c", []string{"-c", "0"}, "bad -c 0"},
		{"negative maxbatches", []string{"-maxbatches", "-3"}, "MaxBatches=-3"},
		{"unknown sampler", []string{"-sampler", "bogus"}, `unknown sampler "bogus"`},
		{"unknown algorithm", []string{"-algorithm", "bogus"}, `unknown algorithm "bogus"`},
		{"unknown topology", []string{"-topology", "torus"}, `unknown topology "torus"`},
		{"unknown backend", []string{"-backend", "des"}, "flag provided but not defined: -backend"},
		{"ring all-to-all", []string{"-alltoall", "ring"}, "ring"},
		{"malformed fault", []string{"-faults", "1@"}, "bad fault"},
		{"fault rank outside p", []string{"-p", "4", "-faults", "9@0.1"}, "rank 9"},
		{"negative ckpt-interval", []string{"-ckpt-interval", "-2"}, "bad checkpoint interval"},
		{"unknown profile", []string{"-profile", "huge"}, `unknown profile "huge"`},
		{"unknown profile with sbm", []string{"-dataset", "sbm", "-profile", "bogus"}, `unknown profile "bogus"`},
		{"unknown dataset", []string{"-dataset", "cora"}, "cora"},
		{"autotune at p = 0", []string{"-p", "0", "-autotune"}, "p=0"},
		{"unknown flag", []string{"-gpus", "4"}, "flag provided but not defined"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := trainer(c.args...)
			if err == nil {
				t.Fatalf("accepted:\n%s", out)
			}
			if msg := err.Error(); !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line containing %q", msg, c.want)
			}
		})
	}
}

// With -autotune the header reports the configuration that runs — the
// tuned c, not the -c flag the tuner replaced.
func TestAutotuneHeaderReportsTunedC(t *testing.T) {
	out, err := trainer("-p", "8", "-c", "0", "-autotune")
	if err != nil {
		t.Fatal(err)
	}
	tuned := regexp.MustCompile(`(?m)^autotune: c=(\d+) `).FindStringSubmatch(out)
	header := regexp.MustCompile(`(?m)^dataset=.* p=8 c=(\d+) `).FindStringSubmatch(out)
	if tuned == nil || header == nil || tuned[1] == "0" || header[1] != tuned[1] {
		t.Fatalf("tuned %v, header %v in:\n%s", tuned, header, out)
	}
}

// A -resume checkpoint of another model is an error naming both
// parameter counts, returned before any epoch trains.
func TestResumeOtherModelIsAnError(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "sbm.ck")
	var out, errw bytes.Buffer
	if err := run([]string{"-dataset", "sbm", "-p", "2", "-epochs", "1", "-checkpoint", ck}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ck)
	if err != nil {
		t.Fatal(err)
	}
	params, err := graphio.ReadParams(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sbmParams := fmt.Sprintf("holds %d parameters", len(params))
	out2, err := trainer("-p", "2", "-resume", ck)
	if err == nil {
		t.Fatalf("accepted:\n%s", out2)
	}
	if msg := err.Error(); !strings.Contains(msg, sbmParams) || !strings.Contains(msg, "the model has") || strings.Contains(msg, "\n") {
		t.Fatalf("error %q, want one line naming both counts (%q)", msg, sbmParams)
	}
	if strings.Contains(out2, "epoch") || strings.Contains(out2, "test accuracy") {
		t.Fatalf("trained before rejecting the checkpoint:\n%s", out2)
	}
}
