package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// paperGraph returns the Figure 1 example graph (undirected, 6
// vertices).
func paperGraph() *sparse.CSR {
	return sparse.FromDense(6, 6, []float64{
		0, 1, 0, 0, 0, 0,
		1, 0, 1, 0, 1, 0,
		0, 1, 0, 1, 1, 0,
		0, 0, 1, 0, 1, 1,
		0, 1, 1, 1, 0, 1,
		0, 0, 0, 1, 1, 0,
	})
}

func testGraph(n int, deg float64, seed int64) *sparse.CSR {
	g := graph.ErdosRenyi(n, deg, seed)
	return graph.EnsureMinOutDegree(g, 3, seed+1).Adj
}

func TestSAGEBuildQMatchesPaperExample(t *testing.T) {
	// Batch {1, 5}: Q_L is 2x6 with ones at (0,1) and (1,5) — the
	// matrix shown in Figure 2a.
	q := SAGE{}.BuildQ(NewFrontier([][]int{{1, 5}}), 6)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.Rows != 2 || q.Cols != 6 || q.NNZ() != 2 {
		t.Fatalf("Q shape wrong: %v", q)
	}
	if q.At(0, 1) != 1 || q.At(1, 5) != 1 {
		t.Fatal("Q entries wrong")
	}
}

func TestSAGEProbabilitiesMatchPaperExample(t *testing.T) {
	// P = Q·A row-normalized: row for vertex 1 has 1/3 at {0,2,4};
	// row for vertex 5 has 1/2 at {3,4} (Figure 2a NORM output).
	a := paperGraph()
	q := SAGE{}.BuildQ(NewFrontier([][]int{{1, 5}}), 6)
	p, _ := sparse.SpGEMM(q, a)
	SAGE{}.Norm(p)
	want := map[[2]int]float64{
		{0, 0}: 1.0 / 3, {0, 2}: 1.0 / 3, {0, 4}: 1.0 / 3,
		{1, 3}: 0.5, {1, 4}: 0.5,
	}
	for ij, v := range want {
		if math.Abs(p.At(ij[0], ij[1])-v) > 1e-12 {
			t.Fatalf("P(%d,%d) = %v, want %v", ij[0], ij[1], p.At(ij[0], ij[1]), v)
		}
	}
	if p.NNZ() != 5 {
		t.Fatalf("P has %d nonzeros, want 5", p.NNZ())
	}
}

func TestLADIESBuildQAndProbabilities(t *testing.T) {
	// Batch {1, 5}: one row with ones in columns 1 and 5. P = QA gives
	// counts e = (1, 0, 1, 1, 2, 0); LADIES squares and normalizes to
	// (1/7, 0, 1/7, 1/7, 4/7, 0) — the probability array of Section
	// 2.2.2.
	a := paperGraph()
	q := LADIES{}.BuildQ(NewFrontier([][]int{{1, 5}}), 6)
	if q.Rows != 1 || q.NNZ() != 2 {
		t.Fatalf("Q shape wrong: %v", q)
	}
	p, _ := sparse.SpGEMM(q, a)
	LADIES{}.Norm(p)
	want := []float64{1.0 / 7, 0, 1.0 / 7, 1.0 / 7, 4.0 / 7, 0}
	for j, v := range want {
		if math.Abs(p.At(0, j)-v) > 1e-12 {
			t.Fatalf("p_%d = %v, want %v", j, p.At(0, j), v)
		}
	}
}

func TestSAGEStepStructure(t *testing.T) {
	a := testGraph(60, 8, 1)
	batches := [][]int{{0, 1, 2, 3}, {10, 11, 12, 13}}
	bs := SampleBulk(SAGE{}, a, batches, []int{3, 2}, 42)
	if err := bs.Validate(a.Rows); err != nil {
		t.Fatal(err)
	}
	if len(bs.Layers) != 2 {
		t.Fatalf("layers = %d", len(bs.Layers))
	}
	l0 := bs.Layers[0]
	if l0.Rows.Len() != 8 {
		t.Fatalf("first layer rows = %d, want 8", l0.Rows.Len())
	}
	// Every frontier vertex with >= 3 neighbors samples exactly 3.
	for i, v := range l0.Rows.Vertices {
		deg := a.RowNNZ(v)
		want := 3
		if deg < 3 {
			want = deg
		}
		if l0.Adj.RowNNZ(i) != want {
			t.Fatalf("row %d (vertex %d, deg %d) sampled %d, want %d",
				i, v, deg, l0.Adj.RowNNZ(i), want)
		}
	}
	// Second layer samples for the grown frontier (self ++ sampled).
	l1 := bs.Layers[1]
	if l1.Rows.Len() != l0.Cols.Len() {
		t.Fatal("second layer rows must be first layer cols")
	}
}

func TestSAGESampledEdgesExistInGraph(t *testing.T) {
	a := testGraph(80, 6, 2)
	bs := SampleBulk(SAGE{}, a, [][]int{{5, 6, 7}}, []int{4, 3}, 7)
	for _, ls := range bs.Layers {
		for i := 0; i < ls.Adj.Rows; i++ {
			u := ls.Rows.Vertices[i]
			cols, _ := ls.Adj.Row(i)
			for _, c := range cols {
				v := ls.Cols.Vertices[c]
				if a.At(u, v) == 0 {
					t.Fatalf("sampled edge (%d,%d) not in graph", u, v)
				}
			}
		}
	}
}

func TestSAGESamplesAreNeighborsWithoutReplacement(t *testing.T) {
	a := testGraph(50, 10, 3)
	bs := SampleBulk(SAGE{}, a, [][]int{{1, 2}}, []int{5}, 9)
	ls := bs.Layers[0]
	for i := 0; i < ls.Adj.Rows; i++ {
		cols, _ := ls.Adj.Row(i)
		seen := map[int]struct{}{}
		for _, c := range cols {
			v := ls.Cols.Vertices[c]
			if _, dup := seen[v]; dup {
				t.Fatalf("row %d sampled vertex %d twice", i, v)
			}
			seen[v] = struct{}{}
		}
	}
}

func TestSAGEDeterministicForSeed(t *testing.T) {
	a := testGraph(60, 12, 4)
	batches := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	b1 := SampleBulk(SAGE{}, a, batches, []int{2, 2}, 11)
	b2 := SampleBulk(SAGE{}, a, batches, []int{2, 2}, 11)
	sameFrontiers := func(x, y *BulkSample) bool {
		for l := range x.Layers {
			if !sparse.Equal(x.Layers[l].Adj, y.Layers[l].Adj) {
				return false
			}
			xv, yv := x.Layers[l].Cols.Vertices, y.Layers[l].Cols.Vertices
			if len(xv) != len(yv) {
				return false
			}
			for i := range xv {
				if xv[i] != yv[i] {
					return false
				}
			}
		}
		return true
	}
	if !sameFrontiers(b1, b2) {
		t.Fatal("identical seeds produced different samples")
	}
	b3 := SampleBulk(SAGE{}, a, batches, []int{2, 2}, 12)
	if sameFrontiers(b1, b3) {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestBulkEqualsPerBatchSAGE(t *testing.T) {
	// Equation 1: sampling k batches in bulk must produce exactly the
	// per-batch samples stacked, because ITS seeds derive from global
	// row ids... per-batch row ids differ, so instead verify the
	// *structural* equivalence: each bulk batch's sampled tree is a
	// valid sample of that batch alone (edges exist, counts match) and
	// batches do not leak vertices into each other.
	a := testGraph(70, 8, 5)
	batches := [][]int{{0, 1, 2}, {30, 31, 32}}
	bs := SampleBulk(SAGE{}, a, batches, []int{3, 2}, 21)
	for _, ls := range bs.Layers {
		for b := 0; b < 2; b++ {
			// Frontier rows of batch b only reference columns of batch b.
			for i := ls.Rows.BatchPtr[b]; i < ls.Rows.BatchPtr[b+1]; i++ {
				cols, _ := ls.Adj.Row(i)
				for _, c := range cols {
					if c < ls.Cols.BatchPtr[b] || c >= ls.Cols.BatchPtr[b+1] {
						t.Fatalf("batch %d row %d references column %d outside its block", b, i, c)
					}
				}
			}
		}
	}
}

func TestLADIESStepStructure(t *testing.T) {
	a := testGraph(100, 10, 6)
	batches := [][]int{{0, 1, 2, 3}, {50, 51, 52, 53}}
	bs := SampleBulk(LADIES{}, a, batches, []int{5, 5}, 31)
	if err := bs.Validate(a.Rows); err != nil {
		t.Fatal(err)
	}
	l0 := bs.Layers[0]
	// Each batch's col frontier is its 4 batch vertices plus at most 5
	// sampled vertices.
	for b := 0; b < 2; b++ {
		cb := l0.Cols.Batch(b)
		if len(cb) > 4+5 {
			t.Fatalf("batch %d frontier %d > 9", b, len(cb))
		}
		// Sampled part must be distinct.
		seen := map[int]struct{}{}
		for _, v := range cb[4:] {
			if _, dup := seen[v]; dup {
				t.Fatalf("batch %d sampled %d twice", b, v)
			}
			seen[v] = struct{}{}
		}
	}
}

func TestLADIESIncludesEveryEdgeBetweenLayerAndSample(t *testing.T) {
	// The defining property of LADIES (Section 2.2.2): the sample
	// includes EVERY edge between the current layer and the sampled
	// vertex set.
	a := testGraph(80, 12, 7)
	batches := [][]int{{0, 1, 2, 3, 4}}
	bs := SampleBulk(LADIES{}, a, batches, []int{6}, 13)
	ls := bs.Layers[0]
	cb := ls.Cols.Batch(0)
	sampled := cb[5:] // after the self prefix
	for i, u := range ls.Rows.Vertices {
		for j, v := range sampled {
			want := a.At(u, v)
			got := ls.Adj.At(i, 5+j)
			if want != got {
				t.Fatalf("edge (%d,%d): graph %v sample %v", u, v, want, got)
			}
		}
	}
}

// TestExtractLayerwiseReadsQRProductInPlace: row extraction is the
// product A_R = Q_R·A with a Q_R of one unit entry per row (Section
// 4.2.3), so ExtractLayerwise reading A's rows in place (rowOf the
// frontier, repeats included) gives, bit for bit, what it gives over the
// formed product (rowOf nil), Cost included; and every edge between a
// frontier row and its batch's sampled set is in the layer, with A's
// weight, and no other.
func TestExtractLayerwiseReadsQRProductInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := testGraph(120, 9, 61)
	for e := range a.Val {
		a.Val[e] = 0.01 + rng.Float64()
	}
	for trial := range 20 {
		var batches, sampled [][]int
		for range 1 + rng.Intn(5) {
			b := make([]int, rng.Intn(8))
			for j := range b {
				b[j] = rng.Intn(a.Rows)
			}
			batches = append(batches, b)
			samp := rng.Perm(a.Rows)[:rng.Intn(a.Rows/2)]
			slices.Sort(samp)
			sampled = append(sampled, samp)
		}
		cur := NewFrontier(batches)
		ar, _ := sparse.SpGEMM(SAGE{}.BuildQ(cur, a.Rows), a)
		got, gotCost := ExtractLayerwise(a, cur.Vertices, cur, sampled)
		want, wantCost := ExtractLayerwise(ar, nil, cur, sampled)
		if gotCost != wantCost || !slices.Equal(got.Cols.Vertices, want.Cols.Vertices) ||
			!slices.Equal(got.Adj.RowPtr, want.Adj.RowPtr) || !slices.Equal(got.Adj.ColIdx, want.Adj.ColIdx) ||
			!slices.EqualFunc(got.Adj.Val, want.Adj.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("trial %d: the in-place extraction differs from the product's (Cost %+v, %+v)", trial, gotCost, wantCost)
		}
		if err := got.Adj.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for b := range batches {
			base := got.Cols.BatchPtr[b] + len(batches[b]) // batch b's first sampled column
			for i := cur.BatchPtr[b]; i < cur.BatchPtr[b+1]; i++ {
				for j, w := range sampled[b] {
					if want, got := a.At(cur.Vertices[i], w), got.Adj.At(i, base+j); want != got {
						t.Fatalf("trial %d: edge (%d, %d) is %v in the layer, %v in A", trial, cur.Vertices[i], w, got, want)
					}
				}
			}
		}
	}
}

// TestLayerwiseStepChargesBothExtractions: a layer-wise Step charges
// EXTRACT as the matrix algorithm runs it — the row gather A_R = Q_R·A,
// then the column extraction reading A_R — one operation per entry of
// the frontier's rows for each, and a kernel for each, though the host
// reads A's rows in place once.
func TestLayerwiseStepChargesBothExtractions(t *testing.T) {
	a := testGraph(90, 8, 12)
	cur := NewFrontier([][]int{{3, 4, 5, 4}, {60, 61}})
	deg := 0
	for _, v := range cur.Vertices {
		deg += a.RowNNZ(v)
	}
	for _, s := range []Sampler{LADIES{}, FastGCN{}} {
		_, cost := s.Step(a, cur, 5, 29)
		if cost.ExtractOps != int64(2*deg) || cost.Kernels != 6 {
			t.Fatalf("%s: ExtractOps %d, Kernels %d; want %d and 6", s.Name(), cost.ExtractOps, cost.Kernels, 2*deg)
		}
	}
}

func TestLADIESSampledFromAggregatedNeighborhood(t *testing.T) {
	a := testGraph(90, 8, 8)
	batches := [][]int{{10, 11, 12}}
	bs := SampleBulk(LADIES{}, a, batches, []int{5}, 17)
	ls := bs.Layers[0]
	nbrs := map[int]struct{}{}
	for _, u := range batches[0] {
		cols, _ := a.Row(u)
		for _, c := range cols {
			nbrs[c] = struct{}{}
		}
	}
	cb := ls.Cols.Batch(0)
	for _, v := range cb[3:] {
		if _, ok := nbrs[v]; !ok {
			t.Fatalf("sampled vertex %d outside aggregated neighborhood", v)
		}
	}
}

func TestFastGCNStepRunsAndWeightsByDegree(t *testing.T) {
	a := testGraph(100, 10, 9)
	bs := SampleBulk(FastGCN{}, a, [][]int{{0, 1, 2, 3}}, []int{5}, 19)
	if err := bs.Validate(a.Rows); err != nil {
		t.Fatal(err)
	}
	if len(bs.Layers[0].Cols.Batch(0)) < 4 {
		t.Fatal("FastGCN produced no frontier")
	}
}

func TestCostAccumulates(t *testing.T) {
	a := testGraph(60, 8, 10)
	bs := SampleBulk(SAGE{}, a, [][]int{{0, 1, 2}}, []int{3, 2}, 23)
	c := bs.Cost
	if c.ProbFlops <= 0 || c.SampleOps <= 0 || c.ExtractOps <= 0 || c.Kernels <= 0 {
		t.Fatalf("cost fields not populated: %+v", c)
	}
	var sum Cost
	sum.Add(c)
	sum.Add(c)
	if sum.Total() != 2*c.Total() {
		t.Fatal("Cost.Add arithmetic wrong")
	}
}

// The input frontier, whose features are fetched, is the deepest
// layer's Cols: every layer samples from the frontier the layer above
// it produced.
func TestInputFrontierIsDeepest(t *testing.T) {
	a := testGraph(60, 8, 11)
	bs := SampleBulk(SAGE{}, a, [][]int{{0, 1}}, []int{3, 2}, 29)
	if bs.Layers[1].Rows != bs.Layers[0].Cols {
		t.Fatal("the deepest layer should sample from the batch layer's Cols")
	}
}

func TestFrontierAccessors(t *testing.T) {
	f := NewFrontier([][]int{{1, 2}, {3}})
	if f.K() != 2 || f.Len() != 3 {
		t.Fatalf("K=%d Len=%d", f.K(), f.Len())
	}
	if b := f.Batch(1); len(b) != 1 || b[0] != 3 {
		t.Fatalf("Batch(1) = %v", b)
	}
}

func TestSamplerNames(t *testing.T) {
	if (SAGE{}).Name() != "GraphSAGE" || (LADIES{}).Name() != "LADIES" || (FastGCN{}).Name() != "FastGCN" {
		t.Fatal("sampler names wrong")
	}
}
