package distsample

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
)

// The row fold fills the process row's total and draws a node-wise layer
// in row stripes (stageArena.fold). These tests pin that the stripes
// move no bit and that their scratch lives in the arena.

// foldAt is foldStages' fold at a forced stripe count: the count pass,
// then k stripes.
func foldAt(d0 *stageArena, srcs []*sparse.CSR, fin finishStep, k int) *rowDraw {
	d0.MergeLayout(&d0.res, srcs)
	return d0.fold(srcs, fin, k)
}

// stripeSources returns m row-aligned rows x n sources whose rows cycle
// through every kind the fold treats apart: empty; one source with more
// than s entries, some of them −0; one source with at most s; several
// sources with overlapping columns; one source whose weights are all
// ±0; and several sources that are all zero.
func stripeSources(rng *rand.Rand, rows, n, m, s int) []*sparse.CSR {
	type entry struct {
		col int
		val float64
	}
	cells := make([][][]entry, m) // cells[src][row]
	for k := range cells {
		cells[k] = make([][]entry, rows)
	}
	// row draws deg distinct sorted columns of a window of width 2·deg
	// (narrow, so several sources overlap) with weights from w.
	row := func(deg int, w func() float64) []entry {
		lo := rng.Intn(n - 2*deg)
		cols := rng.Perm(2 * deg)[:deg]
		slices.Sort(cols)
		out := make([]entry, deg)
		for j, c := range cols {
			out[j] = entry{lo + c, w()}
		}
		return out
	}
	positive := func() float64 { return 0.01 + rng.Float64() }
	signedZero := func() float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) }
	for i := 0; i < rows; i++ {
		switch i % 6 {
		case 1:
			r := row(s+1+rng.Intn(20), positive)
			r[rng.Intn(len(r))].val = math.Copysign(0, -1)
			cells[rng.Intn(m)][i] = r
		case 2:
			cells[rng.Intn(m)][i] = row(1+rng.Intn(s), positive)
		case 3, 5:
			w := positive
			if i%6 == 5 {
				w = signedZero
			}
			for _, k := range rng.Perm(m)[:2+rng.Intn(m-1)] {
				cells[k][i] = row(1+rng.Intn(12), w)
			}
		case 4:
			cells[rng.Intn(m)][i] = row(s+1+rng.Intn(8), signedZero)
		}
	}
	srcs := make([]*sparse.CSR, m)
	for k, rs := range cells {
		a := &sparse.CSR{Rows: rows, Cols: n, RowPtr: make([]int, rows+1)}
		for i, r := range rs {
			for _, e := range r {
				a.ColIdx = append(a.ColIdx, e.col)
				a.Val = append(a.Val, e.val)
			}
			a.RowPtr[i+1] = len(a.ColIdx)
		}
		srcs[k] = a
	}
	return srcs
}

// stripeFrontier is a frontier of rows vertices of an n-vertex graph in
// batches of 7 (the last one shorter).
func stripeFrontier(rng *rand.Rand, rows, n int) *core.Frontier {
	var batches [][]int
	for lo := 0; lo < rows; lo += 7 {
		b := make([]int, min(7, rows-lo))
		for j := range b {
			b[j] = rng.Intn(n)
		}
		batches = append(batches, b)
	}
	return core.NewFrontier(batches)
}

// sameCSRBits reports the first difference between two matrices, values
// compared bit for bit (so −0 and +0 differ).
func sameCSRBits(got, want *sparse.CSR) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if !slices.Equal(got.RowPtr[:got.Rows+1], want.RowPtr[:want.Rows+1]) {
		return fmt.Errorf("row pointers differ")
	}
	nnz := want.NNZ()
	if len(got.ColIdx) != nnz || len(got.Val) != nnz || !slices.Equal(got.ColIdx, want.ColIdx[:nnz]) {
		return fmt.Errorf("columns differ")
	}
	for e, v := range want.Val[:nnz] {
		if math.Float64bits(got.Val[e]) != math.Float64bits(v) {
			return fmt.Errorf("entry %d: %v (bits %x), want %v (bits %x)", e, got.Val[e], math.Float64bits(got.Val[e]), v, math.Float64bits(v))
		}
	}
	return nil
}

// TestFoldStripesMatchSerial: the fold at 1, 2 and 4 stripes, on warm
// arenas, gives serial MergeCSRInto's total and SAGE.FinishStep's layer
// and Cost, bit for bit, on products holding every kind of row.
func TestFoldStripesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const s, seed = 3, 1234
	d0 := &stageArena{}
	for trial := range 4 {
		rows := 150 + rng.Intn(100)
		srcs := stripeSources(rng, rows, 400, 2+rng.Intn(6), s)
		cur := stripeFrontier(rng, rows, 400)
		var sc sparse.Scratch
		want := sc.MergeCSRInto(new(sparse.CSR), srcs)
		wantLS, wantCost := core.SAGE{}.FinishStep(want, cur, s, seed)
		fin := finishStep{s: core.SAGE{}, cur: cur, size: s, seed: seed}
		for _, k := range []int{4, 1, 2, 4} {
			drawn := foldAt(d0, srcs, fin, k)
			for st := range k {
				if d0.stripeLo[st] >= d0.stripeLo[st+1] {
					t.Fatalf("trial %d, %d stripes: stripe %d is empty (bounds %v)", trial, k, st, d0.stripeLo[:k+1])
				}
			}
			if err := sameCSRBits(&d0.res, want); err != nil {
				t.Fatalf("trial %d, %d stripes: total: %v", trial, k, err)
			}
			got := drawn.layer
			if err := sameCSRBits(got.Adj, wantLS.Adj); err != nil {
				t.Fatalf("trial %d, %d stripes: layer adjacency: %v", trial, k, err)
			}
			if got.Rows != cur || !slices.Equal(got.Cols.Vertices, wantLS.Cols.Vertices) ||
				!slices.Equal(got.Cols.BatchPtr, wantLS.Cols.BatchPtr) {
				t.Fatalf("trial %d, %d stripes: the layer's frontiers differ from FinishStep's", trial, k)
			}
			if drawn.cost != wantCost {
				t.Fatalf("trial %d, %d stripes: Cost %+v, FinishStep's %+v", trial, k, drawn.cost, wantCost)
			}
		}
	}
}

// TestFoldStripesAllocateOnlyTheFanOut: the stripes' accumulators, pick
// buffers and samplers live in the first arena, so a warm striped fold
// allocates what a warm one-stripe fold does — the layer it returns —
// plus the fan-out's fixed cost. GC is held off while counting, as in
// TestFreshSetReusesArenaMemory.
func TestFoldStripesAllocateOnlyTheFanOut(t *testing.T) {
	// The layer: its row pointers, frontier, vertex and batch lists,
	// adjacency header, columns and values, and the LayerSample.
	const serialAllocs = 8
	// The fan-out: the fold's stripe closure, and dense.ParallelRows'
	// join record and one goroutine's arguments. AllocsPerRun counts at
	// GOMAXPROCS=1, so both stripes run on one worker; each further
	// worker adds its goroutine's arguments.
	const fanOutAllocs = 3
	rng := rand.New(rand.NewSource(43))
	const rows, s = 200, 3
	srcs := stripeSources(rng, rows, 400, 4, s)
	fin := finishStep{s: core.SAGE{}, cur: stripeFrontier(rng, rows, 400), size: s, seed: 9}
	d0 := &stageArena{}
	foldAt(d0, srcs, fin, 2)
	foldAt(d0, srcs, fin, 1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	serial := testing.AllocsPerRun(20, func() { foldAt(d0, srcs, fin, 1) })
	striped := testing.AllocsPerRun(20, func() { foldAt(d0, srcs, fin, 2) })
	if serial != serialAllocs || striped != serialAllocs+fanOutAllocs {
		t.Fatalf("warm fold: %v allocations at one stripe, %v at two; want %d and %d + %d",
			serial, striped, serialAllocs, serialAllocs, fanOutAllocs)
	}
}
