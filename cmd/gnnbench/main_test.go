package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
)

// gnnbench runs the CLI in-process and returns what it printed.
func gnnbench(args ...string) (stdout, stderr string, err error) {
	var out, errw bytes.Buffer
	err = run(args, &out, &errw)
	return out.String(), errw.String(), err
}

// Every id of the table (perf aside: it measures wall time for
// minutes) runs end to end through the CLI at the smallest size.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range bench.Experiments {
		if e.ID == "perf" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			out, _, err := gnnbench("-experiment", e.ID, "-profile", "tiny", "-maxbatches", "2", "-gpus", "4", "-epochs", "2")
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(out, "\n") < 2 {
				t.Fatalf("printed no table:\n%s", out)
			}
		})
	}
}

// Bad input is a one-line error naming what was wrong — never a panic,
// never a silent no-op.
func TestBadInputIsAnError(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string // substring of the error
		env  string // $GNN_BACKEND for the run, when set
	}{
		{"unknown id", []string{"-experiment", "fig8"}, `unknown experiment "fig8"`, ""},
		{"faults outside resilience", []string{"-experiment", "fig4", "-faults", "1@0.5"}, "-faults applies only to -experiment resilience", ""},
		{"ckpt-interval outside resilience", []string{"-experiment", "all", "-ckpt-interval", "2"}, "-ckpt-interval applies only to -experiment resilience", ""},
		{"perfout outside perf", []string{"-experiment", "scaling", "-perfout", "x.json"}, "-perfout applies only to -experiment perf", ""},
		{"perfbaseline outside perf", []string{"-experiment", "all", "-perfbaseline", "x.json"}, "-perfbaseline applies only to -experiment perf", ""},
		{"sweepworkers outside scaling", []string{"-experiment", "fig4", "-sweepworkers", "2"}, "-sweepworkers applies only to -experiment scaling", ""},
		{"zero gpu count", []string{"-experiment", "fig4", "-gpus", "4,0"}, "bad GPU count 0", ""},
		{"negative maxbatches, sampling-only experiment", []string{"-experiment", "table3", "-maxbatches", "-3"}, "bad -maxbatches -3", ""},
		{"negative maxbatches, every experiment", []string{"-experiment", "all", "-maxbatches", "-1"}, "bad -maxbatches -1", ""},
		{"non-numeric gpus", []string{"-experiment", "fig4", "-gpus", "four"}, "bad GPU count list", ""},
		{"bad topology", []string{"-experiment", "fig4", "-topology", "torus"}, `unknown topology "torus"`, ""},
		{"bad backend", []string{"-experiment", "fig4", "-backend", "thread"}, "thread", ""},
		{"bad allreduce", []string{"-experiment", "fig4", "-allreduce", "pairwise"}, "pairwise", ""},
		{"bad faults", []string{"-experiment", "resilience", "-faults", "1@"}, "bad fault", ""},
		{"fault rank outside p", []string{"-experiment", "resilience", "-profile", "tiny", "-maxbatches", "2", "-gpus", "4", "-faults", "9@0.0001"}, "rank 9", ""},
		{"bad ckpt-interval", []string{"-experiment", "resilience", "-ckpt-interval", "-1"}, "bad checkpoint interval", ""},
		{"bad sweepworkers", []string{"-experiment", "scaling", "-sweepworkers", "0"}, "bad sweep worker count", ""},
		{"bad profile", []string{"-experiment", "fig4", "-profile", "huge"}, `unknown profile "huge"`, ""},
		{"invalid grid", []string{"-experiment", "fig4", "-profile", "tiny", "-gpus", "5"}, "must divide", ""},
		{"invalid 1.5D grid", []string{"-experiment", "fig7sage", "-profile", "tiny", "-gpus", "9"}, "c^2 must divide p (p=9 c=2)", ""},
		{"unknown flag", []string{"-perfreps", "3"}, "flag provided but not defined", ""},
		{"mistyped $GNN_BACKEND", []string{"-experiment", "fig4"}, `$GNN_BACKEND: cluster: unknown backend "dse"`, "dse"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.env != "" {
				t.Setenv("GNN_BACKEND", c.env)
			}
			_, _, err := gnnbench(c.args...)
			if err == nil {
				t.Fatal("accepted")
			}
			if msg := err.Error(); !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line containing %q", msg, c.want)
			}
		})
	}
}

// The platform flags mean the same thing for every id: acc runs under
// the model they assemble, so -backend des is recorded and — by the
// backend contract — trains to the same accuracy.
func TestAccRunsUnderThePlatformFlags(t *testing.T) {
	report := func(backend string) (meta map[string]string, acc any) {
		path := filepath.Join(t.TempDir(), "acc.json")
		if _, _, err := gnnbench("-experiment", "acc", "-epochs", "2", "-backend", backend, "-json", path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Meta    map[string]string `json:"meta"`
			Results map[string]any    `json:"results"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Meta, rep.Results["acc"]
	}
	desMeta, desAcc := report("des")
	_, goAcc := report("goroutine")
	if desMeta["backend"] != "des" {
		t.Errorf("meta %v does not record backend des", desMeta)
	}
	if desAcc == nil || !reflect.DeepEqual(desAcc, goAcc) {
		t.Errorf("accuracy differs across backends: des %v, goroutine %v", desAcc, goAcc)
	}
}

// DESIGN.md's per-experiment index is pinned to the table, and the
// flags its section names are flags gnnbench has.
func TestDesignIndexMatchesTheTable(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Per-experiment index")
	if !ok {
		t.Fatal("DESIGN.md has no per-experiment index")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	var documented, want []string
	for _, m := range regexp.MustCompile(`(?m)^\| ([a-z0-9]+) +\|`).FindAllStringSubmatch(section, -1) {
		if m[1] != "id" {
			documented = append(documented, m[1])
		}
	}
	for _, e := range bench.Experiments {
		want = append(want, e.ID)
	}
	sort.Strings(documented)
	sort.Strings(want)
	if !reflect.DeepEqual(documented, want) {
		t.Errorf("DESIGN.md indexes %v\nbench.Experiments has %v", documented, want)
	}

	_, usage, _ := gnnbench("-h")
	for _, m := range regexp.MustCompile("`(-[a-z][a-z-]*)").FindAllStringSubmatch(section, -1) {
		if !strings.Contains(usage, "\n  "+m[1]+" ") && !strings.Contains(usage, "\n  "+m[1]+"\n") {
			t.Errorf("DESIGN.md's index section names %s, which gnnbench does not have", m[1])
		}
	}
	for _, e := range bench.Experiments {
		if !strings.Contains(usage, "\n    \t  "+e.ID+" ") {
			t.Errorf("gnnbench -h does not list %s", e.ID)
		}
	}
	if strings.Contains(string(data), "perfreps") {
		t.Error("DESIGN.md still mentions the removed -perfreps flag")
	}
}

// Every id that "all" runs backs a recorded result: EXPERIMENTS.md
// gives the command that regenerates it.
func TestEveryExperimentIsRecorded(t *testing.T) {
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{}
	for _, m := range regexp.MustCompile(`gnnbench\b[^\n]*-experiment ([a-z0-9]+)`).FindAllStringSubmatch(string(data), -1) {
		recorded[m[1]] = true
	}
	all, err := bench.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if !recorded[e.ID] {
			t.Errorf("EXPERIMENTS.md records no gnnbench -experiment %s command", e.ID)
		}
	}
}
