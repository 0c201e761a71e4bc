package distsample

import (
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// The stage arenas persist across sampling calls on a PartitionedSet
// (pipeline.Run builds the set once and samples from it all epoch,
// every epoch). These tests pin the reuse contract: a pass over warm
// arenas — buffers grown and dirtied by a previous pass — must be
// bit-identical, in both samples and simulated charges, to the same
// pass over a fresh set.

// runTwoPasses samples twice from the same cluster run and returns the
// second pass's samples plus the final simulated clock. When warm is
// true the second pass reuses the first pass's set (arenas dirty);
// otherwise it gets a freshly built set, the cold control.
func runTwoPasses(t *testing.T, s core.Sampler, a *sparse.CSR,
	batches [][]int, warm bool) ([]*core.BulkSample, float64) {
	t.Helper()
	const p, c = 8, 2
	cl := cluster.New(p, cluster.Perlmutter())
	g := cluster.NewGrid(cl, p, c)
	setA := NewPartitionedSet(g, a, true)
	setB := setA
	if !warm {
		setB = NewPartitionedSet(g, a, true)
	}
	results := make([]*core.BulkSample, p)
	sizes := core.LayerSizes(s, []int{3, 2}, 5, 2)
	sample := func(r *cluster.Rank, set []*Partitioned) *core.BulkSample {
		return SamplePartitioned(r, set[r.ID], s, LocalBatches(g, r.ID, batches), sizes, 99)
	}
	res, err := cl.Run(func(r *cluster.Rank) error {
		sample(r, setA)
		results[r.ID] = sample(r, setB)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, res.SimTime
}

func TestArenaReuseBitIdentical(t *testing.T) {
	a := testGraph(150, 10, 7)
	batches := makeBatches(8, 4, 150)
	for _, entry := range core.Samplers {
		algo, s := entry.Key, entry.New(graph.New(a))
		warm, warmSim := runTwoPasses(t, s, a, batches, true)
		cold, coldSim := runTwoPasses(t, s, a, batches, false)
		if warmSim != coldSim {
			t.Errorf("%s: warm-arena sim clock %.17g, fresh-arena %.17g", algo, warmSim, coldSim)
		}
		for rank := range warm {
			if err := sameBulk(warm[rank], cold[rank]); err != nil {
				t.Errorf("%s rank %d: warm arenas changed the sample: %v", algo, rank, err)
			}
		}
	}
}

// A released set's arenas serve the next set at their grown sizes:
// after one run, a new set's first spgemm15D allocates no more than a
// warm set's next call does. GC is held off while counting: a
// collection frees the runtime's own caches, which then count as
// allocations of whichever call refills them.
func TestFreshSetReusesArenaMemory(t *testing.T) {
	const p, c = 8, 2
	a := testGraph(150, 10, 9)
	batches := makeBatches(8, 4, 150)
	cl := cluster.New(p, cluster.Perlmutter())
	g := cluster.NewGrid(cl, p, c)
	qs := make([]*sparse.CSR, p)
	for rank := range qs {
		qs[rank] = core.SAGE{}.BuildQ(core.NewFrontier(LocalBatches(g, rank, batches)), a.Rows)
	}
	call := func(set []*Partitioned) {
		if _, err := cl.Run(func(r *cluster.Rank) error {
			set[r.ID].spgemm15D(r, qs[r.ID], finishStep{})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warm := NewPartitionedSet(g, a, true)
	call(warm)
	warmCall := testing.AllocsPerRun(5, func() { call(warm) })
	ReleasePartitionedSet(warm)
	build := testing.AllocsPerRun(5, func() { ReleasePartitionedSet(NewPartitionedSet(g, a, true)) })
	freshCall := testing.AllocsPerRun(5, func() {
		set := NewPartitionedSet(g, a, true)
		call(set)
		ReleasePartitionedSet(set)
	}) - build
	if freshCall > warmCall {
		t.Fatalf("a new set's first call made %v allocations, a warm set's call %v", freshCall, warmCall)
	}
}

// A warm second pass must also still match the local-sampling oracle —
// reuse may not trade correctness for allocation.
func TestArenaReuseMatchesLocalOracle(t *testing.T) {
	a := testGraph(150, 10, 8)
	batches := makeBatches(8, 4, 150)
	results, _ := runTwoPasses(t, core.SAGE{}, a, batches, true)
	const p, c = 8, 2
	cl := cluster.New(p, cluster.Perlmutter())
	g := cluster.NewGrid(cl, p, c)
	for rank := 0; rank < p; rank++ {
		local := LocalBatches(g, rank, batches)
		want := core.SampleBulk(core.SAGE{}, a, local, []int{3, 2}, 99)
		if err := sameBulk(results[rank], want); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}
