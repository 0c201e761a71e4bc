package distsample

import (
	"fmt"
	"math"
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

// TestPartitionedRowSharesOneDraw: node-wise, the members of a process
// row return the very same LayerSample pointers, layer for layer;
// layer-wise, they return identical draws (each member assembles its
// own layer from the row's one draw and the all-gathered batches).
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
				if s.LayerWise() {
					continue
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
// for a rank that finished cleanly).
func rowPanics(t *testing.T, a *sparse.CSR, p, c int, s core.Sampler, sizes func(rank int) []int, seed func(rank int) int64) []any {
	t.Helper()
	cl := cluster.New(p, cluster.Perlmutter())
	g := cluster.NewGrid(cl, p, c)
	set := NewPartitionedSet(g, a, true)
	batches := makeBatches(2*p/c, 4, a.Rows)
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
			got := rowPanics(t, a, p, c, s, tc.sizes, tc.seed)
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
func TestPartitionedNaNWeightIsOneFoldError(t *testing.T) {
	const p, c = 8, 2
	for _, s := range []core.Sampler{core.SAGE{}, core.LADIES{}} {
		a := testGraph(120, 8, 23)
		for i := range a.Val {
			a.Val[i] = math.NaN()
		}
		// One pick per row: every row (degree >= 4) takes the weighted draw.
		sizes := func(int) []int { return []int{1, 1} }
		got := rowPanics(t, a, p, c, s, sizes, func(int) int64 { return 7 })
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
