package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestRMATBasicProperties(t *testing.T) {
	g := RMAT(RMATConfig{Scale: 10, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19, Seed: 1})
	if g.NumVertices() != 1024 {
		t.Fatalf("vertices = %d, want 1024", g.NumVertices())
	}
	if err := g.Adj.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 6*1024 {
		t.Fatalf("edges = %d, too few for edge factor 8", g.NumEdges())
	}
	// No self loops.
	for i := 0; i < g.NumVertices(); i++ {
		nbrs, _ := g.Adj.Row(i)
		for _, c := range nbrs {
			if c == i {
				t.Fatalf("self loop at %d", i)
			}
		}
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	// R-MAT with skewed quadrant probabilities must produce a heavier
	// degree tail than Erdos-Renyi at the same size.
	rm := RMAT(RMATConfig{Scale: 11, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19, Seed: 2})
	er := ErdosRenyi(2048, 8, 2)
	maxDeg := func(g *Graph) int {
		m := 0
		for _, d := range g.Degrees() {
			if d > m {
				m = d
			}
		}
		return m
	}
	if maxDeg(rm) <= maxDeg(er) {
		t.Fatalf("R-MAT max degree %d not heavier than ER %d", maxDeg(rm), maxDeg(er))
	}
}

func TestRMATDeterministic(t *testing.T) {
	cfg := RMATConfig{Scale: 8, EdgeFactor: 4, A: 0.5, B: 0.2, C: 0.2, Seed: 7}
	a, b := RMAT(cfg), RMAT(cfg)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("R-MAT not deterministic for fixed seed")
	}
}

func TestErdosRenyi(t *testing.T) {
	for _, tc := range []struct {
		n         int
		avgDegree float64
		edges     int
	}{
		{500, 6, 3000},
		// Asking for more than the n·(n−1) edges of a simple directed
		// graph returns the complete graph instead of drawing forever.
		{4, 5, 12},
		{1, 3, 0},
	} {
		g := ErdosRenyi(tc.n, tc.avgDegree, 3)
		if err := g.Adj.Validate(); err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != tc.edges {
			t.Fatalf("ErdosRenyi(%d, %v): %d edges, want %d", tc.n, tc.avgDegree, g.NumEdges(), tc.edges)
		}
	}
}

func TestEdgeSet(t *testing.T) {
	// Sized for 2 edges, then filled well past it: the table grows.
	s := NewEdgeSet(2)
	for r := 0; r < 40; r++ {
		for c := 0; c < 40; c++ {
			if r != c && !s.Add(r, c) {
				t.Fatalf("(%d,%d) reported present before it was added", r, c)
			}
		}
	}
	for r := 0; r < 40; r++ {
		for c := 0; c < 40; c++ {
			if r != c && s.Add(r, c) {
				t.Fatalf("(%d,%d) reported absent after it was added", r, c)
			}
		}
	}
	if !s.Add(1<<31, 7) || !s.Add(7, 1<<31) || s.Add(1<<31, 7) {
		t.Fatal("high vertex ids collide")
	}
}

func TestEnsureMinOutDegree(t *testing.T) {
	g := ErdosRenyi(200, 1, 4)
	g2 := EnsureMinOutDegree(g, 3, 5)
	if err := g2.Adj.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, d := range g2.Degrees() {
		if d < 3 {
			t.Fatalf("vertex %d degree %d < 3", i, d)
		}
	}
	// Original edges must be preserved.
	for i := 0; i < g.NumVertices(); i++ {
		nbrs, _ := g.Adj.Row(i)
		for _, c := range nbrs {
			if g2.Adj.At(i, c) != 1 {
				t.Fatalf("edge (%d,%d) lost", i, c)
			}
		}
	}
}

func TestEnsureMinOutDegreeCapsAtCompleteRows(t *testing.T) {
	// With 3 vertices a row can hold only 2 neighbors.
	g := EnsureMinOutDegree(New(sparse.FromDense(3, 3, []float64{
		0, 0, 0,
		1, 0, 0,
		0, 0, 0,
	})), 3, 1)
	if err := g.Adj.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, d := range g.Degrees() {
		if d != 2 {
			t.Fatalf("vertex %d degree %d, want 2", i, d)
		}
	}
}

func TestBlockRowRangePartitionIsExact(t *testing.T) {
	check := func(nRaw, blocksRaw uint8) bool {
		n := int(nRaw)
		blocks := 1 + int(blocksRaw)%16
		covered := 0
		prevHi := 0
		for b := 0; b < blocks; b++ {
			lo, hi := BlockRowRange(n, blocks, b)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockOwnerConsistentWithRange(t *testing.T) {
	for _, n := range []int{1, 7, 64, 100, 101} {
		for _, blocks := range []int{1, 2, 3, 7, 8} {
			for r := 0; r < n; r++ {
				owner := BlockOwner(n, blocks, r)
				lo, hi := BlockRowRange(n, blocks, owner)
				if r < lo || r >= hi {
					t.Fatalf("n=%d blocks=%d row %d: owner %d has [%d,%d)", n, blocks, r, owner, lo, hi)
				}
			}
		}
	}
}

func TestBatches(t *testing.T) {
	train := make([]int, 10)
	for i := range train {
		train[i] = i
	}
	bs := Batches(train, 4)
	if len(bs) != 3 || len(bs[0]) != 4 || len(bs[2]) != 2 {
		t.Fatalf("batches wrong: %v", bs)
	}
}

func TestBatchesBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero batch size")
		}
	}()
	Batches([]int{1}, 0)
}

// The table is NormalizeRows followed by a running sum, row by row, and
// a graph builds it once.
func TestRowCDFMatchesNormalizedPrefix(t *testing.T) {
	a := sparse.FromDense(4, 4, []float64{
		0, 2, 0.5, 1.5,
		0, 0, 0, 0,
		3, 0, 0, 1,
		0, -1, 1, 0, // no distribution: negative weight
	})
	g := New(a)
	tab := g.RowCDF()
	if g.RowCDF() != tab {
		t.Fatal("second call built a second table")
	}
	if !tab.Of(a) || tab.Of(a.Clone()) || (*RowCDF)(nil).Of(a) {
		t.Fatal("Of must hold for the wrapped matrix only")
	}
	norm := a.Clone()
	norm.NormalizeRows()
	for v := 0; v < 3; v++ {
		inv, cum := tab.Row(v)
		_, raw := a.Row(v)
		_, want := norm.Row(v)
		acc := 0.0
		for k := range want {
			acc += want[k]
			if cum[k] != acc || raw[k]*inv != want[k] {
				t.Fatalf("row %d entry %d: cum %v weight %v, want %v %v", v, k, cum[k], raw[k]*inv, acc, want[k])
			}
		}
	}
	if inv, _ := tab.Row(3); !math.IsNaN(inv) {
		t.Fatalf("row with a negative weight has scale %v, want NaN", inv)
	}
}
