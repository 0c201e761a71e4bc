package bench

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
)

// quickOpts keeps the axis tests cheap and deterministic: tiny
// datasets, two batches, the discrete-event backend.
func quickOpts(gpus []int) Options {
	model := cluster.Perlmutter()
	model.Backend = cluster.DESBackend
	return Options{Profile: datasets.Tiny, MaxBatches: 2, Seed: 1, GPUCounts: gpus, Model: model}
}

// distinct returns the distinct values of ps in first-seen order.
func distinct(ps []int) []int {
	var out []int
	seen := map[int]bool{}
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// An explicit GPU list is the axis, whatever its length: a nil list —
// and only a nil list — means the default axis the experiment's table
// entry states. Figure 7 used to take any six-element list for the
// harness default and silently ran {16, 32, 64}.
func TestExplicitGPUListIsNeverGuessed(t *testing.T) {
	six := []int{4, 8, 16, 32, 64, 128} // as long as the figures' default axis
	fig7P := func(o Options) []int {
		rows, err := Fig7(io.Discard, "sage", o)
		if err != nil {
			t.Fatal(err)
		}
		var ps []int
		for _, r := range rows {
			ps = append(ps, r.P)
		}
		return distinct(ps)
	}
	if got := fig7P(quickOpts(six)); !reflect.DeepEqual(got, six) {
		t.Errorf("fig7 with explicit %v ran %v", six, got)
	}
	if got := fig7P(quickOpts(nil)); !reflect.DeepEqual(got, fig7GPUs) {
		t.Errorf("fig7 with no GPU list ran %v, want its default axis %v", got, fig7GPUs)
	}

	// Scaling: six explicit counts (as many as ScalingGPUCounts) run as
	// given, and the default-axis cap on the fixed-c=2 series does not
	// apply to them.
	explicit := []int{4, 8, 12, 16, 20, 24}
	var buf bytes.Buffer
	rows, err := Scaling(&buf, quickOpts(explicit))
	if err != nil {
		t.Fatal(err)
	}
	var ps []int
	for _, r := range rows {
		if r.Algorithm == "partitioned" {
			ps = append(ps, r.P)
		}
	}
	if got := distinct(ps); !reflect.DeepEqual(got, explicit) {
		t.Errorf("scaling's c=2 series with explicit %v ran %v", explicit, got)
	}
	if strings.Contains(buf.String(), "intractable") {
		t.Error("scaling applied the default-axis cap to an explicit GPU list")
	}

	// Contention runs one count: the first explicit one, else p=16.
	for _, c := range []struct {
		gpus []int
		want int
	}{{nil, multiNodeGPUs[0]}, {[]int{8}, 8}, {[]int{8, 4, 4, 4, 4, 4}, 8}} {
		rows, err := Contention(io.Discard, quickOpts(c.gpus))
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].P != c.want {
			t.Errorf("contention with GPU list %v ran p=%d, want %d", c.gpus, rows[0].P, c.want)
		}
	}
}

// Select is gnnbench's -experiment vocabulary: every id, "all" for the
// non-standalone ones in table order, and a named error otherwise.
func TestSelect(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] || e.ID == "all" || e.Doc == "" || e.Run == nil {
			t.Errorf("bad table entry %q", e.ID)
		}
		seen[e.ID] = true
		got, err := Select(e.ID)
		if err != nil || len(got) != 1 || got[0].ID != e.ID {
			t.Errorf("Select(%q) = %v, %v", e.ID, got, err)
		}
	}
	all, err := Select("all")
	if err != nil || len(all) != len(Experiments)-1 {
		t.Fatalf("Select(all) = %d experiments, %v; want every one but perf", len(all), err)
	}
	for _, e := range all {
		if e.ID == "perf" {
			t.Error("perf is part of all")
		}
	}
	if _, err := Select("fig8"); err == nil || !strings.Contains(err.Error(), `"fig8"`) || !strings.Contains(err.Error(), "fig7ladies") {
		t.Errorf("unknown id error %v does not name the id and the vocabulary", err)
	}
}
