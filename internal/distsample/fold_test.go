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

// The row fold reads P from the blocks of A the stages received
// (stageRows) and completes the layer once per process row, a node-wise
// draw in row stripes (rowFold.drawStripes). These tests pin that it
// gives the serial sampler's P and layer bit for bit, that the stripes
// move no bit and that their scratch lives in the row's fold.

// stageMembers is a process row of c arenas whose stages hold the
// blocks of a they would receive, c·stages block rows in all: member
// j's stage t holds block row j·stages + t. They share one rowFold.
func stageMembers(a *sparse.CSR, c, stages int) []*stageArena {
	members := make([]*stageArena, c)
	row := &rowFold{view: stageRows{a: a}}
	for j := range members {
		members[j] = &stageArena{row: row}
		members[j].sizeStages(stages)
		for t := range stages {
			lo, hi := graph.BlockRowRange(a.Rows, c*stages, j*stages+t)
			members[j].blocks[t] = sparse.SliceRows(a, lo, hi)
		}
	}
	return members
}

// beginFold states the call every member makes: Q and the finish step,
// as spgemm15D does before the row all-reduce.
func beginFold(members []*stageArena, q *sparse.CSR, fin finishStep) {
	for _, m := range members {
		m.q, m.fin = q, fin
	}
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

// TestFoldStripesAllocateOnlyTheFanOut: the stripes' pick buffers and
// samplers live in the row's fold, so a warm striped in-place draw
// allocates what a warm one-stripe draw does — the layer it returns —
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
	const n, rows, s = 400, 200, 3
	a := inPlaceGraph(rng, n, s)
	members := stageMembers(a, 2, 3)
	cur := stripeFrontier(rng, rows, n)
	fin := finishStep{s: core.SAGE{}, cur: cur, size: s, seed: 9}
	beginFold(members, core.SAGE{}.BuildQ(cur, n), fin)
	rf := members[0].row
	foldAt := func(k int) {
		rf.readP(members)
		rf.drawStripes(fin, k)
	}
	foldAt(2)
	foldAt(1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	serial := testing.AllocsPerRun(20, func() { foldAt(1) })
	striped := testing.AllocsPerRun(20, func() { foldAt(2) })
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
// from the blocks of A the stages received (stageRows) and builds no P.
// On every grid and scheme, drawing with A's RowCDF table (the sampler
// pipeline.Run passes) and without one, it must return, rank for rank,
// the row pointers of the serial product sparse.SpGEMM(Q, A), and the
// layer and Cost SAGE.FinishStep draws from it, bit for bit. Rows with
// a −0 weight draw as the +0 the product holds. Every rank's clock is
// pinned by partitionedChargePins.
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
				cl := cluster.New(p, cluster.Perlmutter())
				g := cluster.NewGrid(cl, p, c)
				batches := randomBatches(rng, 2*g.Rows, 6, n)
				for _, sm := range samplers {
					name := fmt.Sprintf("p=%d c=%d aware=%v %s", p, c, aware, sm.name)
					type result struct {
						ptr   []int
						layer *core.LayerSample
						cost  core.Cost
					}
					got, want := make([]result, p), make([]result, p)
					set := NewPartitionedSet(g, a, aware)
					if _, err := cl.Run(func(r *cluster.Rank) error {
						cur := core.NewFrontier(LocalBatches(g, r.ID, batches))
						q := core.SAGE{}.BuildQ(cur, n)
						ptr, drawn := set[r.ID].spgemm15D(r, q, finishStep{s: sm.sg, cur: cur, size: s, seed: seed})
						got[r.ID] = result{ptr, drawn.layer, drawn.cost}
						prod, _ := sparse.SpGEMM(q, a)
						ls, cost := core.SAGE{}.FinishStep(prod, cur, s, seed)
						want[r.ID] = result{prod.RowPtr, ls, cost}
						return nil
					}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for rank := range got {
						in, ref := got[rank], want[rank]
						if !slices.Equal(in.ptr, ref.ptr) {
							t.Fatalf("%s rank %d: in-place row pointers differ from the product's", name, rank)
						}
						if err := sameCSRBits(in.layer.Adj, ref.layer.Adj); err != nil {
							t.Fatalf("%s rank %d: layer adjacency: %v", name, rank, err)
						}
						if !slices.Equal(in.layer.Cols.Vertices, ref.layer.Cols.Vertices) ||
							!slices.Equal(in.layer.Cols.BatchPtr, ref.layer.Cols.BatchPtr) {
							t.Fatalf("%s rank %d: the layer's frontier differs from FinishStep's", name, rank)
						}
						if in.cost != ref.cost {
							t.Fatalf("%s rank %d: Cost %+v, FinishStep's %+v", name, rank, in.cost, ref.cost)
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
	}
	if negZero == 0 {
		t.Fatal("no frontier row held a −0 weight")
	}
}

// layerwisePs runs one layer-wise sampler's P call of spgemm15D on
// every rank of a p x c grid over batches, after edit (when not nil)
// has changed the set, and returns every rank's P as the process row's
// fold holds it after the call — summed from the blocks the stages
// received and normalized there — and the serial
// Norm(sparse.SpGEMM(Q, A)).
func layerwisePs(t *testing.T, a *sparse.CSR, batches [][]int, p, c int, s core.Sampler, aware bool, edit func([]*Partitioned)) (got, want []*sparse.CSR) {
	t.Helper()
	cl := cluster.New(p, cluster.Perlmutter())
	g := cluster.NewGrid(cl, p, c)
	set := NewPartitionedSet(g, a, aware)
	if edit != nil {
		edit(set)
	}
	got, want = make([]*sparse.CSR, p), make([]*sparse.CSR, p)
	if _, err := cl.Run(func(r *cluster.Rank) error {
		cur := core.NewFrontier(LocalBatches(g, r.ID, batches))
		q := s.BuildQ(cur, a.Rows)
		set[r.ID].spgemm15D(r, q, finishStep{s: s, cur: cur, size: 8, seed: 5})
		got[r.ID] = set[r.ID].fold.res.Clone()
		want[r.ID], _ = sparse.SpGEMM(q, a)
		s.Norm(want[r.ID])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got, want
}

// TestFoldLayerwisePMatchesSerial: the fold sums a layer-wise sampler's
// P from the blocks of A the stages received, each row over Q's entries
// in column order through one accumulator, as sparse.SpGEMM(Q, A) sums
// it, and normalizes it in place. LADIES's and FastGCN's P equal the
// serial Norm(SpGEMM(Q, A)) bit for bit on every grid and under both
// schemes, on a weighted graph with −0 rows, where a sum grouped by
// block rounds apart from the serial one: the merge of per-stage
// products that the fold replaced rounded LADIES's P apart in 6 of
// these 8 grid and scheme cases.
func TestFoldLayerwisePMatchesSerial(t *testing.T) {
	const n = 240
	rng := rand.New(rand.NewSource(57))
	a := inPlaceGraph(rng, n, 3)
	g := graph.New(a)
	for _, entry := range core.Samplers {
		s := entry.New(g)
		if !s.LayerWise() {
			continue
		}
		for _, pc := range [][2]int{{4, 1}, {8, 2}, {16, 2}, {16, 4}} {
			for _, aware := range []bool{true, false} {
				// Batches of 30 vertices: most columns of a row of P then
				// sum rows of A from several blocks.
				batches := randomBatches(rng, 2*pc[0]/pc[1], 30, n)
				got, want := layerwisePs(t, a, batches, pc[0], pc[1], s, aware, nil)
				for rank := range got {
					if err := sameCSRBits(got[rank], want[rank]); err != nil {
						t.Fatalf("%s p=%d c=%d aware=%v rank %d: P: %v", entry.Key, pc[0], pc[1], aware, rank, err)
					}
				}
			}
		}
	}
}

// TestFoldLayerwisePReadsTheBlocks: the fold sums a layer-wise P from
// the blocks the stages received, not from the set's A, which the view
// only names. When the owner of a row of A holds it one entry short and
// every batch holds that row's vertex, every rank's LADIES P differs
// from the serial one, on both schemes. (LADIES: its P sums A's
// weights, where FastGCN's Norm overwrites every value with a degree of
// A.)
func TestFoldLayerwisePReadsTheBlocks(t *testing.T) {
	const n, p, c = 120, 8, 2
	const v = 7 // v%5 == 2: more than 3 positive entries (inPlaceGraph)
	rng := rand.New(rand.NewSource(59))
	a := inPlaceGraph(rng, n, 3)
	short := shortRow(a, v)
	for _, aware := range []bool{true, false} {
		batches := randomBatches(rng, 2*p/c, 5, n)
		for _, b := range batches {
			b[0] = v
		}
		got, want := layerwisePs(t, a, batches, p, c, core.LADIES{}, aware, func(set []*Partitioned) {
			for _, ps := range set {
				if ps.Lo <= v && v < ps.Hi {
					ps.ALocal = sparse.SliceRows(short, ps.Lo, ps.Hi)
				}
			}
		})
		for rank := range got {
			if sameCSRBits(got[rank], want[rank]) == nil {
				t.Fatalf("aware=%v rank %d: P equals the serial one with the owner's row %d one entry short", aware, rank, v)
			}
		}
	}
}

// shortRow is a copy of a whose row v lacks its first entry.
func shortRow(a *sparse.CSR, v int) *sparse.CSR {
	short := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	for u := range a.Rows {
		cols, vals := a.Row(u)
		if u == v {
			cols, vals = cols[1:], vals[1:]
		}
		short.ColIdx = append(short.ColIdx, cols...)
		short.Val = append(short.Val, vals...)
		short.RowPtr[u+1] = len(short.ColIdx)
	}
	return short
}

// TestPartitionedLayerwiseBitsMatchSerial: a layer-wise layer is one
// core.ExtractLayerwise over A's rows on every path — the serial step
// reads A, the 1.5D row fold the blocks its stages received — so LADIES
// and FastGCN layers equal the serial ones bit for bit on every grid and
// under both schemes, and a −0 weight of A stays −0 in the layer, where
// a formed Q_R·A would hold +0.
func TestPartitionedLayerwiseBitsMatchSerial(t *testing.T) {
	const n = 240
	rng := rand.New(rand.NewSource(55))
	a := inPlaceGraph(rng, n, 3)
	g := graph.New(a)
	negZero := 0 // −0 entries of the serial layers
	for _, entry := range core.Samplers {
		s := entry.New(g)
		if !s.LayerWise() {
			continue
		}
		sizes := core.LayerSizes(s, nil, 8, 2)
		for _, pc := range [][2]int{{4, 1}, {8, 2}, {16, 4}} {
			for _, aware := range []bool{true, false} {
				name := fmt.Sprintf("%s p=%d c=%d aware=%v", entry.Key, pc[0], pc[1], aware)
				batches := randomBatches(rng, 2*pc[0]/pc[1], 6, n)
				results, _ := runPartitioned(t, a, batches, pc[0], pc[1], s, sizes, aware)
				for rank, got := range results {
					want := core.SampleBulk(s, a, got.Batches, sizes, 99)
					if err := sameBulk(got, want); err != nil {
						t.Fatalf("%s rank %d: %v", name, rank, err)
					}
					for _, wl := range want.Layers {
						for _, w := range wl.Adj.Val {
							if w == 0 && math.Signbit(w) {
								negZero++
							}
						}
					}
				}
			}
		}
	}
	if negZero == 0 {
		t.Fatal("no layer held a −0 weight")
	}
}

// TestFoldInPlaceStripesMatchSerial: the in-place draw at 1, 2 and 4
// stripes, on a warm arena, gives SAGE.FinishStep's layer and Cost on
// the serial product Q·A, bit for bit, whose −0 weights are +0.
func TestFoldInPlaceStripesMatchSerial(t *testing.T) {
	const n, s, seed, c, stages = 300, 3, 99, 2, 3
	rng := rand.New(rand.NewSource(47))
	a := inPlaceGraph(rng, n, s)
	members := stageMembers(a, c, stages)
	rf := members[0].row
	for trial := range 3 {
		cur := stripeFrontier(rng, 150+rng.Intn(100), n)
		q := core.SAGE{}.BuildQ(cur, n)
		fin := finishStep{s: core.SAGE{}, cur: cur, size: s, seed: seed}
		beginFold(members, q, fin)
		p, _ := sparse.SpGEMM(q, a)
		wantLS, wantCost := core.SAGE{}.FinishStep(p, cur, s, seed)
		for _, k := range []int{4, 1, 2, 4} {
			if rf.readP(members); !slices.Equal(rf.ptr, p.RowPtr) {
				t.Fatalf("trial %d: in-place row pointers differ from the product's", trial)
			}
			rf.drawStripes(fin, k)
			for st := range k {
				if rf.stripeLo[st] >= rf.stripeLo[st+1] {
					t.Fatalf("trial %d, %d stripes: stripe %d is empty (bounds %v)", trial, k, st, rf.stripeLo[:k+1])
				}
			}
			drawn := &rf.draw
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

// TestFoldInPlaceOnlyForUnitRows: spgemm15D reads P in place only for a
// Q whose every row holds one entry of value 1, GraphSAGE's; only a
// layer-wise sampler's P is summed. A node-wise draw or a Q_R
// extraction given any other Q has no path to take: every rank's call
// panics naming errNotUnit before its first stage.
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
	const p, c = 4, 2
	cl := cluster.New(p, cluster.Perlmutter())
	g := cluster.NewGrid(cl, p, c)
	set := NewPartitionedSet(g, testGraph(8, 2, 61), true)
	steps := map[string]finishStep{
		"a node-wise draw": {s: core.SAGE{}, cur: cur, size: 2, seed: 1},
		"a Q_R extraction": {s: core.LADIES{}, cur: cur, size: 2, seed: 1, sampled: [][]int{{1}, {5}}},
	}
	for name, q := range map[string]*sparse.CSR{"a weight of 2": scaled, "an empty row": empty, "two entries": double} {
		if unitPerRow(q) {
			t.Fatalf("a Q with %s is drawn in place", name)
		}
		for step, fin := range steps {
			got := make([]any, p)
			if _, err := cl.Run(func(r *cluster.Rank) error {
				defer func() { got[r.ID] = recover() }()
				set[r.ID].spgemm15D(r, q, fin)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for rank, rec := range got {
				if rec != errNotUnit {
					t.Fatalf("%s given a Q with %s: rank %d recovered %v, want %q", step, name, rank, rec, errNotUnit)
				}
			}
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
	short := shortRow(a, v)
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
