package distsample

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// The c members of a process row hold the same batches, so the row fold
// draws each layer once for all of them (finishStep). These tests pin
// what that sharing promises: one draw per row, agreement checked by
// name, and a failing draw that reaches every member as one error.

// TestPartitionedRowSharesOneDraw: for every sampler, node-wise and
// layer-wise alike, the members of a process row return the very same
// LayerSample pointers, layer for layer: the row fold completes each
// layer once for the whole row.
func TestPartitionedRowSharesOneDraw(t *testing.T) {
	a := testGraph(150, 10, 21)
	batches := makeBatches(8, 4, 150)
	for _, entry := range core.Samplers {
		s := entry.New(graph.New(a))
		sizes := core.LayerSizes(s, []int{3, 2}, 5, 2)
		for _, pc := range [][2]int{{8, 2}, {16, 4}} {
			p, c := pc[0], pc[1]
			results, _ := runPartitioned(t, a, batches, p, c, s, sizes, true)
			for rank := 0; rank < p; rank++ {
				first := rank - rank%c // the row's column-0 member
				got, want := results[rank], results[first]
				if err := sameBulk(got, want); err != nil {
					t.Fatalf("%s p=%d c=%d: rank %d and rank %d differ: %v", entry.Key, p, c, rank, first, err)
				}
				for l := range got.Layers {
					if got.Layers[l] != want.Layers[l] {
						t.Fatalf("%s p=%d c=%d: rank %d drew its own layer %d instead of sharing rank %d's",
							entry.Key, p, c, rank, l, first)
					}
				}
			}
		}
	}
}

// rowPanics runs one partitioned sampling pass with each rank's body
// recovering its own panic, and returns what each rank recovered (nil
// for a rank that finished cleanly). The 2p/c batches hold batch
// vertices each.
func rowPanics(t *testing.T, a *sparse.CSR, p, c, batch int, s core.Sampler, sizes func(rank int) []int, seed func(rank int) int64) []any {
	t.Helper()
	cl := cluster.New(p, cluster.Perlmutter())
	g := cluster.NewGrid(cl, p, c)
	set := NewPartitionedSet(g, a, true)
	batches := makeBatches(2*p/c, batch, a.Rows)
	got := make([]any, p)
	if _, err := cl.Run(func(r *cluster.Rank) error {
		defer func() { got[r.ID] = recover() }()
		SamplePartitioned(r, set[r.ID], s, LocalBatches(g, r.ID, batches), sizes(r.ID), seed(r.ID))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestPartitionedRowMembersMustAgree: members of a process row that pass
// different seeds or fan-outs cannot share one draw; every member
// panics with the fold's error, which names the disagreement.
func TestPartitionedRowMembersMustAgree(t *testing.T) {
	a := testGraph(120, 8, 22)
	const p, c = 8, 2
	for _, s := range []core.Sampler{core.SAGE{}, core.LADIES{}} {
		for _, tc := range []struct {
			name  string
			sizes func(rank int) []int
			seed  func(rank int) int64
		}{
			{"seed", func(int) []int { return []int{3, 2} }, func(rank int) int64 { return 5 + int64(rank%c) }},
			{"fan-out", func(rank int) []int { return []int{3 + rank%c, 2} }, func(int) int64 { return 5 }},
		} {
			got := rowPanics(t, a, p, c, 4, s, tc.sizes, tc.seed)
			for rank, rec := range got {
				msg := fmt.Sprint(rec)
				if rec == nil || !strings.Contains(msg, errRowDisagree) {
					t.Fatalf("%s, members with different %s: rank %d recovered %q, want the fold's %q",
						s.Name(), tc.name, rank, msg, errRowDisagree)
				}
			}
		}
	}
}

// TestPartitionedNaNWeightIsOneFoldError: a NaN edge weight makes the
// row's one draw panic inside the fold. Every member of the row then
// panics with the same error value — no member waits forever for a
// draw that never comes — and the error keeps the sampler's message.
// The second graph's first total is large enough for the fold to run
// in row stripes, so the node-wise draw panics on a dense.ParallelRows
// worker, which hands the panic back to the fold.
func TestPartitionedNaNWeightIsOneFoldError(t *testing.T) {
	const p, c = 8, 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	for _, tc := range []struct {
		n, batch int
		deg      float64
		striped  bool
	}{{120, 4, 8, false}, {2048, 1024, 80, true}} {
		a := testGraph(tc.n, tc.deg, 23)
		if tc.striped {
			// Process row 0 holds batches 0 and 1, its first total their
			// rows of A.
			rows, nnz := 2*tc.batch, 0
			for _, b := range makeBatches(2, tc.batch, tc.n) {
				for _, v := range b {
					nnz += a.RowNNZ(v)
				}
			}
			if k := foldStripes(rows, int64(nnz)); k < 2 {
				t.Fatalf("n=%d: the first fold runs %d stripe(s), want several", tc.n, k)
			}
		}
		for i := range a.Val {
			a.Val[i] = math.NaN()
		}
		for _, s := range []core.Sampler{core.SAGE{}, core.LADIES{}} {
			// One pick per row: every row (degree >= 4) takes the weighted draw.
			sizes := func(int) []int { return []int{1, 1} }
			got := rowPanics(t, a, p, c, tc.batch, s, sizes, func(int) int64 { return 7 })
			for rank, rec := range got {
				err, ok := rec.(error)
				if !ok || !strings.Contains(err.Error(), "core: negative or NaN sampling weight") ||
					!strings.Contains(err.Error(), "fold panicked") {
					t.Fatalf("%s: rank %d recovered %v, want the row fold's error carrying the NaN weight", s.Name(), rank, rec)
				}
				if first := rank - rank%c; got[first] != rec {
					t.Fatalf("%s: rank %d and rank %d of one process row recovered different errors", s.Name(), rank, first)
				}
			}
		}
	}
}

// TestPartitionedRowSharesOneFold: a process row's c members hold one
// rowFold — the row's P and draw — and no two rows share one. After a
// call, every member's arena reaches the fold through row, which is how
// the row all-reduce's fold finds it.
func TestPartitionedRowSharesOneFold(t *testing.T) {
	const p, c = 16, 2
	a := testGraph(150, 10, 24)
	cl := cluster.New(p, cluster.Perlmutter())
	g := cluster.NewGrid(cl, p, c)
	set := NewPartitionedSet(g, a, true)
	rowOf := map[*rowFold]int{}
	for rank, ps := range set {
		i := g.RowIndex(rank)
		if prev, ok := rowOf[ps.fold]; ps.fold == nil || ok && prev != i {
			t.Fatalf("rank %d of row %d: fold %p, already row %d's", rank, i, ps.fold, prev)
		}
		rowOf[ps.fold] = i
	}
	if len(rowOf) != g.Rows {
		t.Fatalf("%d folds for %d process rows", len(rowOf), g.Rows)
	}
	batches := makeBatches(2*g.Rows, 4, a.Rows)
	if _, err := cl.Run(func(r *cluster.Rank) error {
		SamplePartitioned(r, set[r.ID], core.SAGE{}, LocalBatches(g, r.ID, batches), []int{3}, 5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for rank, ps := range set {
		if got := ps.arenas.stages[rank].row; got != ps.fold {
			t.Fatalf("rank %d's arena reaches fold %p, its row's is %p", rank, got, ps.fold)
		}
	}
}

// TestPartitionedBlocksViewA: a set's blocks, and the 1D baseline's,
// are views of A, not copies: each block's columns and values are A's
// rows [Lo, Hi) in A's own storage, capped at the block's end.
func TestPartitionedBlocksViewA(t *testing.T) {
	const p, c = 8, 2
	a := testGraph(150, 10, 25)
	views := func(name string, rank int, b *sparse.CSR, lo, hi int) {
		t.Helper()
		base, end := a.RowPtr[lo], a.RowPtr[hi]
		if end == base || &b.ColIdx[0] != &a.ColIdx[base] || &b.Val[0] != &a.Val[base] ||
			cap(b.ColIdx) != end-base || cap(b.Val) != end-base {
			t.Fatalf("%s rank %d: the block of rows [%d, %d) is no capped view of A", name, rank, lo, hi)
		}
	}
	g := cluster.NewGrid(cluster.New(p, cluster.Perlmutter()), p, c)
	for rank, ps := range NewPartitionedSet(g, a, true) {
		views("1.5D", rank, ps.ALocal, ps.Lo, ps.Hi)
	}
	for rank, od := range NewOneDSet(p, a) {
		views("1D", rank, od.ALocal, od.Lo, od.Hi)
	}
}
