package distsample

import (
	"math/rand"
	"runtime/debug"
	"slices"
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
	fins := make([]finishStep, p)
	for rank := range qs {
		cur := core.NewFrontier(LocalBatches(g, rank, batches))
		qs[rank] = core.SAGE{}.BuildQ(cur, a.Rows)
		fins[rank] = finishStep{s: core.SAGE{}, cur: cur, size: 3, seed: 5}
	}
	call := func(set []*Partitioned) {
		if _, err := cl.Run(func(r *cluster.Rank) error {
			set[r.ID].spgemm15D(r, qs[r.ID], fins[r.ID])
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

// TestPartitionedAwareBlockAliasesPayload: a sparsity-aware stage lays
// the payload it received out as its block of A_k with row pointers of
// its own, and ColIdx and Val that are the payload's storage. The block
// equals A_k's requested rows, every other row empty, bit for bit. A
// payload that does not match its ascending request list panics.
func TestPartitionedAwareBlockAliasesPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := inPlaceGraph(rng, 90, 3) // empty, short, long and −0 rows
	lists := [][]int{{1, 4, 5, 20, 33}, {}, {0, 2, 89}, {5}}
	var owner stageArena
	parts := owner.extractParts(a, lists)
	var out sparse.CSR
	for m, ids := range lists {
		rows := parts[m].rows
		want := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
		for u := range a.Rows {
			if slices.Contains(ids, u) {
				cs, vs := a.Row(u)
				want.ColIdx = append(want.ColIdx, cs...)
				want.Val = append(want.Val, vs...)
			}
			want.RowPtr[u+1] = len(want.ColIdx)
		}
		got := assembleBlockInto(&out, a.Rows, ids, rows)
		if err := sameCSRBits(got, want); err != nil {
			t.Fatalf("request %v: %v", ids, err)
		}
		if nnz := rows.NNZ(); nnz > 0 && (&got.ColIdx[0] != &rows.ColIdx[0] || &got.Val[0] != &rows.Val[0]) {
			t.Fatalf("request %v: the block copied the payload's %d entries", ids, nnz)
		}
	}
	rows := parts[0].rows // the rows of {1, 4, 5, 20, 33}
	for name, ids := range map[string][]int{
		"out of order":   {4, 1, 5, 20, 33},
		"a row too few":  {1, 4, 5, 20},
		"a row too many": {1, 4, 5, 20, 33, 40},
		"past the block": {1, 4, 5, 20, 95},
		"a repeated row": {1, 4, 4, 20, 33},
	} {
		func() {
			defer func() {
				if rec := recover(); rec != errMisaligned {
					t.Fatalf("%s: recovered %v, want %q", name, rec, errMisaligned)
				}
			}()
			assembleBlockInto(&out, a.Rows, ids, rows)
		}()
	}
}

// TestPartitionedAliasedBlocksMatchSerial: the aware stages' blocks
// alias the owners' payloads, which an owner rewrites at its next
// extraction. GraphSAGE (drawing with A's table) and LADIES, over four
// layers at p=16 c=2 — consecutive calls, and LADIES's two calls per
// layer — still give every rank the serial sample, and after the run
// every stage block holding entries shares its owner's response
// storage. CI runs it under -race at GOMAXPROCS=4.
func TestPartitionedAliasedBlocksMatchSerial(t *testing.T) {
	const p, c = 16, 2
	a := testGraph(300, 12, 53)
	gr := graph.New(a)
	batches := makeBatches(32, 4, a.Rows)
	for _, s := range []core.Sampler{core.SAGE{CDF: gr.RowCDF()}, core.LADIES{}} {
		sizes := core.LayerSizes(s, []int{4, 3, 3, 2}, 6, 4)
		cl := cluster.New(p, cluster.Perlmutter())
		g := cluster.NewGrid(cl, p, c)
		set := NewPartitionedSet(g, a, true)
		results := make([]*core.BulkSample, p)
		if _, err := cl.Run(func(r *cluster.Rank) error {
			results[r.ID] = SamplePartitioned(r, set[r.ID], s, LocalBatches(g, r.ID, batches), sizes, 99)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for rank, got := range results {
			if err := sameBulk(got, core.SampleBulk(s, a, got.Batches, sizes, 99)); err != nil {
				t.Fatalf("%s rank %d: %v", s.Name(), rank, err)
			}
		}
		stages, aliased := g.Rows/c, 0
		for rank, ar := range set[0].arenas.stages {
			j := g.ColIndex(rank)
			for st, blk := range ar.asms {
				if blk.NNZ() == 0 {
					continue
				}
				owner := set[0].arenas.stages[(j*stages+st)*c+j] // grid slot (k, j), k = j·stages + st
				if !inStorage(blk.ColIdx, owner.respCols) || !inStorage(blk.Val, owner.respVals) {
					t.Fatalf("%s rank %d stage %d: the block does not alias its owner's payload", s.Name(), rank, st)
				}
				aliased++
			}
		}
		if aliased == 0 {
			t.Fatalf("%s: no stage block held an entry", s.Name())
		}
	}
}

// inStorage reports whether v's first element lies in buf's backing array.
func inStorage[T any](v, buf []T) bool {
	buf = buf[:cap(buf)]
	for i := range buf {
		if &buf[i] == &v[0] {
			return true
		}
	}
	return false
}
