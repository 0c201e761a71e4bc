package cliutil

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
)

// The three CLIs that take -profile and the platform flags (trainer,
// gnnbench, compare) share this flag vocabulary; these tables are the
// single conformance suite for it.

func TestParseProfileAccepts(t *testing.T) {
	want := map[string]datasets.Profile{
		"tiny":  datasets.Tiny,
		"small": datasets.Small,
		"scale": datasets.Scale,
		"bench": datasets.Bench,
	}
	for in, p := range want {
		got, err := ParseProfile(in)
		if err != nil || got != p {
			t.Errorf("ParseProfile(%q) = %v, %v; want %v", in, got, err, p)
		}
	}
}

func TestParseProfileRejects(t *testing.T) {
	for _, in := range []string{"", "Tiny", "TINY", "medium", "bench ", "tiny,small", "0"} {
		if _, err := ParseProfile(in); err == nil {
			t.Errorf("ParseProfile(%q) accepted", in)
		}
	}
}

func TestParseIntsAccepts(t *testing.T) {
	cases := map[string][]int{
		"4":           {4},
		"4,8,16":      {4, 8, 16},
		" 4 , 8 ":     {4, 8},
		"0":           {0},
		"-3":          {-3},
		"512,512,512": {512, 512, 512},
	}
	for in, want := range cases {
		got, err := ParseInts(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseInts(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestParseIntsRejects(t *testing.T) {
	for _, in := range []string{"", "a", "4,", ",4", "4;8", "1.5", "4,,8", "4 8"} {
		if _, err := ParseInts(in); err == nil {
			t.Errorf("ParseInts(%q) accepted", in)
		}
	}
}

func TestParseGPUCountsAccepts(t *testing.T) {
	got, err := ParseGPUCounts("4,8,512")
	if err != nil || !reflect.DeepEqual(got, []int{4, 8, 512}) {
		t.Fatalf("ParseGPUCounts = %v, %v", got, err)
	}
}

func TestParseGPUCountsRejects(t *testing.T) {
	for _, in := range []string{"", "0", "-4", "4,0,8", "4,-1", "p16", "16x"} {
		if _, err := ParseGPUCounts(in); err == nil {
			t.Errorf("ParseGPUCounts(%q) accepted", in)
		}
	}
}

func TestParseSweepWorkersAccepts(t *testing.T) {
	cases := map[string]int{
		"":          0, // unset -> GOMAXPROCS at run time
		"default":   0,
		" default ": 0,
		"1":         1, // serial
		"2":         2,
		" 8 ":       8,
		"128":       128,
	}
	for in, want := range cases {
		got, err := ParseSweepWorkers(in)
		if err != nil || got != want {
			t.Errorf("ParseSweepWorkers(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
}

func TestParseSweepWorkersRejects(t *testing.T) {
	for _, in := range []string{"0", "-1", "-8", "two", "1.5", "4,8", "8x", "GOMAXPROCS"} {
		if _, err := ParseSweepWorkers(in); err == nil {
			t.Errorf("ParseSweepWorkers(%q) accepted", in)
		}
	}
}

// Contradictory flag combinations: experiment-scoped flags must error,
// not no-op, when another experiment is selected.
func TestRequireExperimentTable(t *testing.T) {
	accept := []struct{ flag, value, experiment, want string }{
		{"perfout", "", "scaling", "perf"},             // unset anywhere
		{"sweepworkers", "default", "perf", "scaling"}, // default anywhere
		{"perfout", "BENCH_0009.json", "perf", "perf"},
		{"perfbaseline", "BENCH_0008.json", "perf", "perf"},
		{"sweepworkers", "2", "scaling", "scaling"},
	}
	for _, c := range accept {
		if err := RequireExperiment(c.flag, c.value, c.experiment, c.want); err != nil {
			t.Errorf("RequireExperiment(%q, %q, %q, %q) rejected: %v", c.flag, c.value, c.experiment, c.want, err)
		}
	}
	reject := []struct{ flag, value, experiment, want string }{
		{"perfout", "BENCH_0009.json", "scaling", "perf"},
		{"perfbaseline", "BENCH_0008.json", "all", "perf"},
		{"sweepworkers", "2", "fig4", "scaling"},
	}
	for _, c := range reject {
		if err := RequireExperiment(c.flag, c.value, c.experiment, c.want); err == nil {
			t.Errorf("RequireExperiment(%q, %q, %q, %q) accepted", c.flag, c.value, c.experiment, c.want)
		}
	}
}

// -allreduce / -alltoall accept/reject tables: the CLIs hand these
// straight to cluster.ParseCollectives, pinned here so a vocabulary
// change cannot slip past the shared flag surface unnoticed.
func TestCollectivesFlagTable(t *testing.T) {
	accept := []struct{ allreduce, alltoall string }{
		{"default", "default"},
		{"", ""}, // empty = default
		{"flat", "flat"},
		{"tree", "bruck"}, // synonyms
		{"Ring", "Pairwise"},
		{"ring", "pairwise"},
		{"hier", "default"},
		{"hierarchical", "flat"},
		{"flattree", "flattree"},
	}
	for _, c := range accept {
		if _, err := cluster.ParseCollectives(c.allreduce, c.alltoall); err != nil {
			t.Errorf("ParseCollectives(%q, %q) rejected: %v", c.allreduce, c.alltoall, err)
		}
	}
	reject := []struct{ allreduce, alltoall string }{
		{"rng", "default"},
		{"flat,ring", "default"},
		{"allreduce=ring", "default"},
		{"pairwise", "default"}, // pairwise is not an all-reduce schedule
		{"bruck", "default"},
		{"default", "ring"}, // ring is not an all-to-allv schedule
		{"default", "hier"}, // hierarchical is not an all-to-allv schedule
	}
	for _, c := range reject {
		if _, err := cluster.ParseCollectives(c.allreduce, c.alltoall); err == nil {
			t.Errorf("ParseCollectives(%q, %q) accepted", c.allreduce, c.alltoall)
		}
	}
}

// -topology accept/reject table (cluster.ParseTopology).
func TestTopologyFlagTable(t *testing.T) {
	// Case and surrounding space are normalized; "" and "none" mean ideal.
	for _, in := range []string{"ideal", "none", "", "Ideal", "perlmutter", " perlmutter ", "oversub", "oversubscribed"} {
		if _, err := cluster.ParseTopology(in); err != nil {
			t.Errorf("ParseTopology(%q) rejected: %v", in, err)
		}
	}
	if topo, err := cluster.ParseTopology("ideal"); err != nil || topo != nil {
		t.Errorf("ParseTopology(ideal) = %v, %v; want nil topology", topo, err)
	}
	for _, in := range []string{"fat-tree", "oversub2", "ideal,oversub", "4"} {
		if _, err := cluster.ParseTopology(in); err == nil {
			t.Errorf("ParseTopology(%q) accepted", in)
		}
	}
}

// -backend accept/reject table (cluster.ParseBackend).
func TestBackendFlagTable(t *testing.T) {
	// Case and surrounding space are normalized; "" means default.
	accept := []struct {
		in   string
		want cluster.Backend
	}{
		{"", cluster.DefaultBackend},
		{"default", cluster.DefaultBackend},
		{"Default", cluster.DefaultBackend},
		{"goroutine", cluster.GoroutineBackend},
		{"goroutines", cluster.GoroutineBackend},
		{"go", cluster.GoroutineBackend},
		{" Goroutine ", cluster.GoroutineBackend},
		{"des", cluster.DESBackend},
		{"DES", cluster.DESBackend},
		{"event", cluster.DESBackend},
		{"discrete-event", cluster.DESBackend},
	}
	for _, c := range accept {
		got, err := cluster.ParseBackend(c.in)
		if err != nil {
			t.Errorf("ParseBackend(%q) rejected: %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseBackend(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, in := range []string{"thread", "goroutine,des", "des2", "events", "1"} {
		if _, err := cluster.ParseBackend(in); err == nil {
			t.Errorf("ParseBackend(%q) accepted", in)
		}
	}
	// The round trip the CLIs rely on for trace metadata.
	for _, b := range []cluster.Backend{cluster.DefaultBackend, cluster.GoroutineBackend, cluster.DESBackend} {
		got, err := cluster.ParseBackend(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBackend(%v.String()) = %v, %v; want identity", b, got, err)
		}
	}
}

func TestParseFaultsAccepts(t *testing.T) {
	cases := map[string]string{
		"":              "",
		"default":       "",
		" default ":     "",
		"1@0.5":         "1@0.5",
		" 1@0.5 ":       "1@0.5",
		"1@0.5,3@1.25":  "1@0.5,3@1.25",
		"3@1.25, 1@0.5": "1@0.5,3@1.25", // String renders sorted by (time, rank)
		"0@1e-9":        "0@1e-09",
		"2 @ 0.25":      "2@0.25",
		"1@0.5,1@0.75":  "1@0.5,1@0.75", // same rank twice is a valid plan
	}
	for in, want := range cases {
		plan, err := ParseFaults(in)
		if err != nil {
			t.Errorf("ParseFaults(%q): %v", in, err)
			continue
		}
		if got := plan.String(); got != want {
			t.Errorf("ParseFaults(%q) = %q, want %q", in, got, want)
		}
		if want == "" && plan != nil {
			t.Errorf("ParseFaults(%q) = %v, want nil plan", in, plan)
		}
	}
}

func TestParseFaultsRejects(t *testing.T) {
	for _, in := range []string{
		"1", "@", "1@", "@0.5", "1@0.5,", ",", "1@0.5,,2@1",
		"-1@0.5", "x@0.5", "1@x", "1@0", "1@-1", "1@NaN", "1@Inf", "1@-Inf",
		"1@0.5;2@1", "1.5@0.5", "1@@0.5",
	} {
		if plan, err := ParseFaults(in); err == nil {
			t.Errorf("ParseFaults(%q) accepted: %v", in, plan)
		}
	}
}

func TestParseCkptIntervalAccepts(t *testing.T) {
	cases := map[string]int{
		"":          0,
		"default":   0,
		" default ": 0,
		"0":         0, // explicit off
		"1":         1,
		" 4 ":       4,
		"100":       100,
	}
	for in, want := range cases {
		got, err := ParseCkptInterval(in)
		if err != nil || got != want {
			t.Errorf("ParseCkptInterval(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
}

func TestParseCkptIntervalRejects(t *testing.T) {
	for _, in := range []string{"-1", "-100", "two", "1.5", "4,8", "1e3", "+-2", "interval"} {
		if _, err := ParseCkptInterval(in); err == nil {
			t.Errorf("ParseCkptInterval(%q) accepted", in)
		}
	}
}

// The platform flags are declared once for every command and parse into
// one cost model — Perlmutter with the selections set on it: the values
// parse through the tables above, a command's note lands after the
// shared help text, and -faults/-ckpt-interval exist only on request.
func TestRegisterPlatformFlags(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	parse := RegisterPlatformFlags(fs, true, map[string]string{"topology": " (a note)"})
	if err := fs.Parse([]string{"-allreduce", "ring", "-alltoall", "pairwise", "-topology", "oversub",
		"-backend", "des", "-faults", "1@0.5", "-ckpt-interval", "2"}); err != nil {
		t.Fatal(err)
	}
	m, ckpt, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if m.Collectives != (cluster.Collectives{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise}) ||
		m.Topology == nil || m.Backend != cluster.DESBackend || m.Faults.String() != "1@0.5" || ckpt != 2 {
		t.Errorf("parsed %+v, ckpt-interval %d", m, ckpt)
	}
	if base := cluster.Perlmutter(); m.GPUsPerNode != base.GPUsPerNode || m.Alpha != base.Alpha || m.Beta != base.Beta {
		t.Errorf("selections not set on the Perlmutter model: %+v", m)
	}
	if got, want := fs.Lookup("topology").Usage, cluster.TopologyFlagUsage+" (a note)"; got != want {
		t.Errorf("-topology usage %q, want %q", got, want)
	}
	if got := fs.Lookup("backend").Usage; got != cluster.BackendFlagUsage {
		t.Errorf("-backend usage %q", got)
	}

	fs = flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	parse = RegisterPlatformFlags(fs, false, nil)
	if fs.Lookup("faults") != nil || fs.Lookup("ckpt-interval") != nil {
		t.Error("fault flags registered without being asked for")
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if m, ckpt, err := parse(); err != nil || !reflect.DeepEqual(m, cluster.Perlmutter()) || ckpt != 0 {
		t.Errorf("no flags: parsed %+v, ckpt-interval %d, err %v; want plain Perlmutter", m, ckpt, err)
	}
	if err := fs.Parse([]string{"-backend", "thread"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := parse(); err == nil {
		t.Error("bad -backend accepted")
	}
}

// ParseFlags is the preamble of every binary's run: -h is not an error
// and prints the usage, a bad flag is one and prints it too.
func TestParseFlags(t *testing.T) {
	parse := func(args ...string) (p int, usage string, help bool, err error) {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.IntVar(&p, "p", 4, "simulated GPUs")
		var stderr strings.Builder
		help, err = ParseFlags(fs, args, &stderr)
		return p, stderr.String(), help, err
	}
	if p, usage, help, err := parse("-p", "8"); p != 8 || usage != "" || help || err != nil {
		t.Errorf("-p 8: p=%d usage=%q help=%v err=%v", p, usage, help, err)
	}
	if _, usage, help, err := parse("-h"); !help || err != nil || !strings.Contains(usage, "simulated GPUs") {
		t.Errorf("-h: usage=%q help=%v err=%v", usage, help, err)
	}
	if _, usage, help, err := parse("-q"); help || err == nil || !strings.Contains(usage, "not defined") {
		t.Errorf("-q: usage=%q help=%v err=%v", usage, help, err)
	}
}
