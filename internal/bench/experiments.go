package bench

import (
	"fmt"
	"io"
	"strings"
)

// Experiment is one artifact the harness regenerates: a table or figure
// of the paper's evaluation, or one of the repo's own studies — each the
// same simulated pipeline under a different (p, c, k, sampler, machine)
// tuple, the machine being Options.Model. Every id that "all" runs has
// its result recorded in EXPERIMENTS.md (pinned by test).
type Experiment struct {
	ID  string // the gnnbench -experiment value
	Doc string // one line for gnnbench -h
	// GPUs is the default GPU axis, swept when Options.GPUCounts is nil
	// (single-count experiments run the first entry of whichever list
	// applies). nil means the experiment has no GPU axis: its counts are
	// part of its definition, Options.GPUCounts is ignored, and gnnbench
	// rejects -gpus for it.
	GPUs       []int
	Standalone bool // not part of "all"
	// Run prints the experiment's table to w and returns its rows for
	// the JSON report (nil when it has none).
	Run func(w io.Writer, o Options) (rows any, err error)
}

// The default GPU axes (ScalingGPUCounts is the fifth, in scaling.go).
var (
	figureGPUs     = []int{4, 8, 16, 32, 64, 128} // Figures 4–6 and the overlap study
	fig7GPUs       = []int{16, 32, 64}            // Figure 7
	collectiveGPUs = []int{4, 8, 64}              // one node, two nodes, many
	// multiNodeGPUs is the one count the single-count experiments
	// (tprob, contention, resilience) run. Contention needs nodes to
	// share NICs and a trunk to oversubscribe — single-node runs keep
	// every flow on per-GPU NVLink ports and never contend — and p=16 is
	// where the replicated pipeline's ~1.5x overlap gain meets heavy
	// inter-node fetch traffic, so the erosion is visible.
	multiNodeGPUs = []int{16}
)

// Experiments is the one list of experiment ids: gnnbench's -experiment
// vocabulary and help text, the order "all" runs in, each default GPU
// axis, and DESIGN.md's per-experiment index (pinned by test) all derive
// from it. The fixed parameters of an experiment — its dataset, swept
// values, pinned GPU counts — sit in its entry.
var Experiments = []Experiment{
	{ID: "table2", Doc: "system capability matrix",
		Run: func(w io.Writer, _ Options) (any, error) { Table2(w); return nil, nil }},
	{ID: "table3", Doc: "dataset statistics",
		Run: func(w io.Writer, o Options) (any, error) { return Table3(w, o.Profile) }},
	{ID: "fig4", Doc: "Graph Replicated pipeline vs Quiver, per-epoch breakdown", GPUs: figureGPUs,
		Run: func(w io.Writer, o Options) (any, error) { return Fig4(w, o) }},
	{ID: "fig5", Doc: "Quiver GPU vs UVA sampling", GPUs: figureGPUs,
		Run: func(w io.Writer, o Options) (any, error) { return Fig5(w, o) }},
	{ID: "fig6", Doc: "effect of feature replication (c)", GPUs: figureGPUs,
		Run: func(w io.Writer, o Options) (any, error) { return Fig6(w, o) }},
	{ID: "fig7sage", Doc: "1.5D partitioned GraphSAGE sampling breakdown", GPUs: fig7GPUs,
		Run: func(w io.Writer, o Options) (any, error) { return Fig7(w, "sage", o) }},
	{ID: "fig7ladies", Doc: "1.5D partitioned LADIES breakdown + serial CPU reference", GPUs: fig7GPUs,
		Run: func(w io.Writer, o Options) (any, error) { return Fig7(w, "ladies", o) }},
	{ID: "acc", Doc: "SBM accuracy experiment (Section 8.1.3 analog); -epochs sets the training length",
		Run: func(w io.Writer, o Options) (any, error) { return Accuracy(w, nil, o) }},
	{ID: "tprob", Doc: "T_prob communication model vs measured, per collective algorithm", GPUs: multiNodeGPUs,
		Run: func(w io.Writer, o Options) (any, error) {
			return Tprob(w, "products", o.gpus(multiNodeGPUs)[0], []int{1, 2, 4}, o)
		}},
	{ID: "collectives", Doc: "collective algorithms vs analytic bounds (algorithm x p x message size, per-link bytes)", GPUs: collectiveGPUs,
		Run: func(w io.Writer, o Options) (any, error) { return CollectiveSweep(w, o) }},
	{ID: "contention", Doc: "shared-link contention: algorithm x schedule x topology, overlap-gain erosion, per-physical-link utilization", GPUs: multiNodeGPUs,
		Run: func(w io.Writer, o Options) (any, error) { return Contention(w, o) }},
	{ID: "scaling", Doc: "weak + strong scaling: algorithm x all-reduce schedule x topology, efficiency + simulator wall-time + ledger peak", GPUs: ScalingGPUCounts,
		Run: func(w io.Writer, o Options) (any, error) { return Scaling(w, o) }},
	// perf measures the simulator itself (wall-clock), not the paper's
	// figures, and is driven separately by the CI regression gate.
	{ID: "perf", Doc: "simulator perf suite: pinned workload matrix (wall, allocs, ledger peak) vs a committed BENCH_*.json baseline", Standalone: true,
		Run: func(w io.Writer, o Options) (any, error) { return Perf(w, o) }},
	{ID: "amortization", Doc: "bulk-size sweep (kernel-launch amortization)",
		Run: func(w io.Writer, o Options) (any, error) {
			return Amortization(w, "products", []int{1, 4, 16, 0}, o)
		}},
	{ID: "partition", Doc: "1D block-row vs 1.5D partitioned bulk sampling, sparsity-aware and oblivious: time and bytes sent",
		Run: func(w io.Writer, o Options) (any, error) {
			return PartitionAblation(w, "products", []int{8, 16, 32}, o)
		}},
	{ID: "overlap", Doc: "overlapped vs sequential + bound (replicated and 1.5D partitioned)", GPUs: figureGPUs,
		Run: func(w io.Writer, o Options) (any, error) { return OverlapAnalysis(w, o) }},
	{ID: "resilience", Doc: "checkpoint-interval sweep vs injected fail-stop: clean overhead, attempts, resume epoch, wasted + total simulated work", GPUs: multiNodeGPUs,
		Run: func(w io.Writer, o Options) (any, error) {
			return Resilience(w, "products", o.gpus(multiNodeGPUs)[0], nil, o)
		}},
	{ID: "verify", Doc: "reproduction self-checks",
		Run: func(w io.Writer, o Options) (any, error) { return Verify(w, o) }},
}

// Select resolves a gnnbench -experiment value: one id, or "all" for
// every entry that is not standalone, in table order.
func Select(id string) ([]Experiment, error) {
	var all []Experiment
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		if e.ID == id {
			return []Experiment{e}, nil
		}
		if !e.Standalone {
			all = append(all, e)
		}
		ids[i] = e.ID
	}
	if id == "all" {
		return all, nil
	}
	return nil, fmt.Errorf("unknown experiment %q (want one of: %s, all)", id, strings.Join(ids, ", "))
}

// Usage renders the table as the -experiment help text.
func Usage() string {
	var b strings.Builder
	b.WriteString("experiment id, or all (every id not marked standalone):")
	for _, e := range Experiments {
		fmt.Fprintf(&b, "\n  %-12s %s", e.ID, e.Doc)
		if e.GPUs != nil {
			fmt.Fprintf(&b, " (default -gpus %v)", e.GPUs)
		}
		if e.Standalone {
			b.WriteString(" (standalone)")
		}
	}
	return b.String() + "\n"
}
