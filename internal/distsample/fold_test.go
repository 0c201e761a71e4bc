package distsample

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
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

// inPlaceGraph is an n-vertex adjacency whose rows cycle through the
// kinds the in-place draw reads apart: empty; at most s entries; more
// than s, positive; more than s with one −0 weight; and more than s, all
// −0.
func inPlaceGraph(rng *rand.Rand, n, s int) *sparse.CSR {
	a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for v := range n {
		deg := s + 1 + rng.Intn(12)
		switch v % 5 {
		case 0:
			deg = 0
		case 1:
			deg = 1 + rng.Intn(s)
		}
		cols := rng.Perm(n)[:deg]
		slices.Sort(cols)
		for e, c := range cols {
			w := 0.01 + rng.Float64()
			if v%5 == 4 || v%5 == 3 && e == deg/2 {
				w = math.Copysign(0, -1)
			}
			a.ColIdx = append(a.ColIdx, c)
			a.Val = append(a.Val, w)
		}
		a.RowPtr[v+1] = len(a.ColIdx)
	}
	return a
}

// randomBatches is k batches of b vertices drawn at random from [0, n),
// repeats allowed.
func randomBatches(rng *rand.Rand, k, b, n int) [][]int {
	out := make([][]int, k)
	for i := range out {
		out[i] = make([]int, b)
		for j := range out[i] {
			out[i][j] = rng.Intn(n)
		}
	}
	return out
}

// TestFoldInPlaceMatchesMerge: a GraphSAGE step's fold draws P's rows
// from the blocks of A the stages received (stageRows) and builds no
// total. On every grid and scheme, drawing with A's RowCDF table (the
// sampler pipeline.Run passes) and without one, it must return, rank for
// rank, the layer and Cost that the SpGEMM + merge total (the same call
// without a finish step) and SAGE.FinishStep give, bit for bit, and
// leave every rank's clock where that call leaves it: the in-place path
// charges every stage multiply and the total it no longer builds. Rows
// with a −0 weight draw as the +0 the total holds.
func TestFoldInPlaceMatchesMerge(t *testing.T) {
	const n, s, seed = 240, 3, 77
	rng := rand.New(rand.NewSource(45))
	a := inPlaceGraph(rng, n, s)
	samplers := []struct {
		name string
		sg   core.SAGE
	}{{"table", core.SAGE{CDF: graph.New(a).RowCDF()}}, {"no table", core.SAGE{}}}
	negZero := 0 // frontier rows with a −0 weight and more than s entries
	for _, p := range []int{4, 16} {
		for _, c := range []int{1, 2, 4} {
			if p%(c*c) != 0 {
				continue
			}
			for _, aware := range []bool{true, false} {
				name := fmt.Sprintf("p=%d c=%d aware=%v", p, c, aware)
				cl := cluster.New(p, cluster.Perlmutter())
				g := cluster.NewGrid(cl, p, c)
				batches := randomBatches(rng, 2*g.Rows, 6, n)
				type result struct {
					total *sparse.CSR
					layer *core.LayerSample
					cost  core.Cost
					clock float64
				}
				// run draws in place with sg, or, when sg is nil, merges the
				// total and draws it with SAGE.FinishStep.
				run := func(sg *core.SAGE) []result {
					out := make([]result, p)
					set := NewPartitionedSet(g, a, aware)
					if _, err := cl.Run(func(r *cluster.Rank) error {
						cur := core.NewFrontier(LocalBatches(g, r.ID, batches))
						q := core.SAGE{}.BuildQ(cur, n)
						res := &out[r.ID]
						if sg != nil {
							fin := finishStep{s: *sg, cur: cur, size: s, seed: seed}
							var drawn *rowDraw
							res.total, drawn = set[r.ID].spgemm15D(r, q, fin)
							res.layer, res.cost, res.clock = drawn.layer, drawn.cost, r.Clock()
							return nil
						}
						res.total, _ = set[r.ID].spgemm15D(r, q, finishStep{})
						res.clock = r.Clock()
						res.layer, res.cost = core.SAGE{}.FinishStep(res.total, cur, s, seed)
						return nil
					}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return out
				}
				want := run(nil)
				var got []result
				for _, sm := range samplers {
					got = run(&sm.sg)
					for rank := range got {
						in, ref := got[rank], want[rank]
						if in.total != nil || ref.total == nil {
							t.Fatalf("%s %s rank %d: in-place call returned a total (%v), merging call none (%v)",
								name, sm.name, rank, in.total != nil, ref.total == nil)
						}
						if err := sameCSRBits(in.layer.Adj, ref.layer.Adj); err != nil {
							t.Fatalf("%s %s rank %d: layer adjacency: %v", name, sm.name, rank, err)
						}
						if !slices.Equal(in.layer.Cols.Vertices, ref.layer.Cols.Vertices) ||
							!slices.Equal(in.layer.Cols.BatchPtr, ref.layer.Cols.BatchPtr) {
							t.Fatalf("%s %s rank %d: the layer's frontier differs from FinishStep's", name, sm.name, rank)
						}
						if in.cost != ref.cost {
							t.Fatalf("%s %s rank %d: Cost %+v, FinishStep's %+v", name, sm.name, rank, in.cost, ref.cost)
						}
						if in.clock != ref.clock {
							t.Fatalf("%s %s rank %d: clock %.17g after the in-place call, %.17g after the merging one",
								name, sm.name, rank, in.clock, ref.clock)
						}
					}
				}
				for _, v := range got[0].layer.Rows.Vertices {
					if v%5 >= 3 {
						negZero++
					}
				}
			}
		}
	}
	if negZero == 0 {
		t.Fatal("no frontier row held a −0 weight")
	}
}

// TestFoldInPlaceStripesMatchSerial: the in-place draw at 1, 2 and 4
// stripes, on a warm arena, gives SAGE.FinishStep's layer and Cost on
// the serial product Q·A, bit for bit, whose −0 weights are +0.
func TestFoldInPlaceStripesMatchSerial(t *testing.T) {
	const n, s, seed, c, stages = 300, 3, 99, 2, 3
	rng := rand.New(rand.NewSource(47))
	a := inPlaceGraph(rng, n, s)
	members := make([]*stageArena, c)
	for j := range members {
		members[j] = &stageArena{}
		members[j].stageProds(stages)
		for t := range stages {
			lo, hi := graph.BlockRowRange(n, c*stages, j*stages+t)
			members[j].blocks[t] = sparse.SliceRows(a, lo, hi)
		}
	}
	d0 := members[0]
	for trial := range 3 {
		cur := stripeFrontier(rng, 150+rng.Intn(100), n)
		q := core.SAGE{}.BuildQ(cur, n)
		for _, m := range members {
			m.q, m.a = q, a
		}
		p, _ := sparse.SpGEMM(q, a)
		wantLS, wantCost := core.SAGE{}.FinishStep(p, cur, s, seed)
		fin := finishStep{s: core.SAGE{}, cur: cur, size: s, seed: seed}
		for _, k := range []int{4, 1, 2, 4} {
			d0.view = newStageRows(members)
			d0.viewPtr = d0.view.rowPtr(d0.viewPtr)
			if !slices.Equal(d0.viewPtr, p.RowPtr) {
				t.Fatalf("trial %d: in-place row pointers differ from the product's", trial)
			}
			drawn := d0.fold(nil, fin, k)
			got := drawn.layer
			if err := sameCSRBits(got.Adj, wantLS.Adj); err != nil {
				t.Fatalf("trial %d, %d stripes: layer adjacency: %v", trial, k, err)
			}
			if !slices.Equal(got.Cols.Vertices, wantLS.Cols.Vertices) ||
				!slices.Equal(got.Cols.BatchPtr, wantLS.Cols.BatchPtr) {
				t.Fatalf("trial %d, %d stripes: the layer's frontier differs from FinishStep's", trial, k)
			}
			if drawn.cost != wantCost {
				t.Fatalf("trial %d, %d stripes: Cost %+v, FinishStep's %+v", trial, k, drawn.cost, wantCost)
			}
		}
	}
}

// TestFoldInPlaceOnlyForUnitRows: spgemm15D draws in place only from a
// Q whose every row holds one entry of value 1, GraphSAGE's; any other
// Q keeps the SpGEMM + merge path, whose total it returns.
func TestFoldInPlaceOnlyForUnitRows(t *testing.T) {
	cur := core.NewFrontier([][]int{{3, 1, 4}, {1, 5}})
	unit := core.SAGE{}.BuildQ(cur, 8)
	if !unitPerRow(unit) {
		t.Fatal("GraphSAGE's Q is not drawn in place")
	}
	scaled := core.SAGE{}.BuildQ(cur, 8)
	scaled.Val[2] = 2
	empty := &sparse.CSR{Rows: 2, Cols: 8, RowPtr: []int{0, 1, 1}, ColIdx: []int{3}, Val: []float64{1}}
	double := &sparse.CSR{Rows: 1, Cols: 8, RowPtr: []int{0, 2}, ColIdx: []int{2, 6}, Val: []float64{1, 1}}
	for name, q := range map[string]*sparse.CSR{"a weight of 2": scaled, "an empty row": empty, "two entries": double} {
		if unitPerRow(q) {
			t.Fatalf("a Q with %s is drawn in place", name)
		}
	}
}

// TestFoldInPlaceTableRowGuard: the in-place draw looks a row's prefix
// sums up in the sampler's RowCDF table by vertex and reads the row
// itself from the block its stage received. When the received row is not
// as long as the table's — here the owner's block lost an entry of a row
// with more than s — every member's call fails naming core.ErrTableRow,
// on both schemes; without a table the same blocks draw.
func TestFoldInPlaceTableRowGuard(t *testing.T) {
	const n, s, p, c = 120, 3, 8, 2
	const v = 7 // v%5 == 2: more than s positive entries (inPlaceGraph)
	rng := rand.New(rand.NewSource(49))
	a := inPlaceGraph(rng, n, s)
	if a.RowNNZ(v) <= s {
		t.Fatalf("row %d holds %d entries, want more than %d", v, a.RowNNZ(v), s)
	}
	short := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for u := range n {
		cols, vals := a.Row(u)
		if u == v {
			cols, vals = cols[1:], vals[1:]
		}
		short.ColIdx = append(short.ColIdx, cols...)
		short.Val = append(short.Val, vals...)
		short.RowPtr[u+1] = len(short.ColIdx)
	}
	tab := graph.New(a).RowCDF()
	for _, aware := range []bool{true, false} {
		cl := cluster.New(p, cluster.Perlmutter())
		g := cluster.NewGrid(cl, p, c)
		batches := randomBatches(rng, 2*g.Rows, 5, n)
		for _, b := range batches {
			b[0] = v
		}
		for _, sg := range []core.SAGE{{CDF: tab}, {}} {
			set := NewPartitionedSet(g, a, aware)
			for _, ps := range set {
				if ps.Lo <= v && v < ps.Hi {
					ps.ALocal = sparse.SliceRows(short, ps.Lo, ps.Hi)
				}
			}
			got := make([]any, p)
			if _, err := cl.Run(func(r *cluster.Rank) error {
				defer func() { got[r.ID] = recover() }()
				SamplePartitioned(r, set[r.ID], sg, LocalBatches(g, r.ID, batches), []int{s}, 3)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for rank, rec := range got {
				if sg.CDF == nil {
					if rec != nil {
						t.Fatalf("aware=%v, no table: rank %d panicked: %v", aware, rank, rec)
					}
					continue
				}
				if err, ok := rec.(error); !ok || !strings.Contains(err.Error(), core.ErrTableRow) {
					t.Fatalf("aware=%v: rank %d recovered %v, want the fold's error naming %q", aware, rank, rec, core.ErrTableRow)
				}
			}
		}
	}
}
