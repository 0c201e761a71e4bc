package graph

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

// triangleGraph: vertices {0,1,2} form a triangle; 3 hangs off 2; 4-5
// form a separate edge.
func triangleGraph() *Graph {
	return New(sparse.FromEntries(6, 6, [][3]float64{
		{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, // directed triangle
		{2, 3, 1},
		{4, 5, 1},
	}))
}

func TestSymmetrize(t *testing.T) {
	g := Symmetrize(triangleGraph())
	if g.Adj.At(1, 0) != 1 || g.Adj.At(0, 1) != 1 {
		t.Fatal("edge not mirrored")
	}
	if g.Adj.At(5, 4) != 1 {
		t.Fatal("isolated edge not mirrored")
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if g.Adj.At(i, j) != g.Adj.At(j, i) {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

// Symmetrize equals a dense A + Aᵀ reference: an entry wherever A or Aᵀ
// has one, valued 1 where the sum is nonzero and +0 where it cancels.
// Signed weights (−0 and cancelling ±1 among them) probe the merge's
// zeros; the unit-weight graphs are what the library builds.
func TestSymmetrizeMatchesDenseReference(t *testing.T) {
	weights := []float64{1, -1, math.Copysign(0, -1), 2.5}
	for seed := int64(1); seed <= 6; seed++ {
		g := ErdosRenyi(40, 3, seed)
		if seed%2 == 0 {
			adj := g.Adj.Clone()
			for k := range adj.Val {
				adj.Val[k] = weights[(k*7+int(seed))%len(weights)]
			}
			g = New(adj)
		}
		n := g.NumVertices()
		sum := make([]float64, n*n)
		stored := make([]bool, n*n)
		for i := 0; i < n; i++ {
			cols, vals := g.Adj.Row(i)
			for k, j := range cols {
				sum[i*n+j] += vals[k]
				sum[j*n+i] += vals[k]
				stored[i*n+j], stored[j*n+i] = true, true
			}
		}
		got := Symmetrize(g).Adj
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < n; i++ {
			cols, vals := got.Row(i)
			k := 0
			for j := 0; j < n; j++ {
				if !stored[i*n+j] {
					continue
				}
				if k == len(cols) || cols[k] != j {
					t.Fatalf("seed %d: row %d is missing column %d", seed, i, j)
				}
				want := 0.0
				if sum[i*n+j] != 0 {
					want = 1
				}
				if math.Float64bits(vals[k]) != math.Float64bits(want) {
					t.Fatalf("seed %d: (%d,%d) = %v, want %v", seed, i, j, vals[k], want)
				}
				k++
			}
			if k != len(cols) {
				t.Fatalf("seed %d: row %d has %d entries, want %d", seed, i, len(cols), k)
			}
		}
	}
}

func TestTriangleCount(t *testing.T) {
	if got := TriangleCount(triangleGraph()); got != 1 {
		t.Fatalf("triangles = %d, want 1", got)
	}
	// A 4-clique has 4 triangles.
	clique := NewCompleteGraph(4)
	if got := TriangleCount(clique); got != 4 {
		t.Fatalf("K4 triangles = %d, want 4", got)
	}
	// A path has none.
	path := New(sparse.FromEntries(4, 4, [][3]float64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}))
	if got := TriangleCount(path); got != 0 {
		t.Fatalf("path triangles = %d, want 0", got)
	}
}

// NewCompleteGraph returns K_n (directed both ways, no self loops).
func NewCompleteGraph(n int) *Graph {
	coo := sparse.NewCOO(n, n, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				coo.Add(i, j, 1)
			}
		}
	}
	return New(coo.ToCSR())
}

func TestConnectedComponents(t *testing.T) {
	labels, count := ConnectedComponents(triangleGraph())
	if count != 2 {
		t.Fatalf("components = %d, want 2", count)
	}
	// {0,1,2,3} share a component; {4,5} another.
	if labels[0] != labels[3] || labels[4] != labels[5] {
		t.Fatalf("labels wrong: %v", labels)
	}
	if labels[0] == labels[4] {
		t.Fatal("separate components merged")
	}
}

func TestConnectedComponentsFullyConnected(t *testing.T) {
	g := EnsureMinOutDegree(ErdosRenyi(100, 6, 51), 3, 52)
	_, count := ConnectedComponents(g)
	if count != 1 {
		t.Fatalf("dense random graph has %d components", count)
	}
}

func TestBFSLevels(t *testing.T) {
	levels := BFSLevels(triangleGraph(), 0)
	want := []int{0, 1, 1, 2, -1, -1}
	for i, w := range want {
		if levels[i] != w {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
}

func TestBFSLevelsMatchExplosionBFS(t *testing.T) {
	// Cross-check against a plain queue BFS on a random graph.
	g := Symmetrize(ErdosRenyi(200, 4, 53))
	src := 7
	want := make([]int, 200)
	for i := range want {
		want[i] = -1
	}
	want[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if want[u] == -1 {
				want[u] = want[v] + 1
				queue = append(queue, u)
			}
		}
	}
	got := BFSLevels(g, src)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: level %d, want %d", i, got[i], want[i])
		}
	}
}

func TestKCoreDecomposition(t *testing.T) {
	// Triangle + pendant: triangle vertices have core 2, pendant 1,
	// isolated edge vertices 1.
	core := KCoreDecomposition(triangleGraph())
	want := []int{2, 2, 2, 1, 1, 1}
	for i, w := range want {
		if core[i] != w {
			t.Fatalf("core = %v, want %v", core, want)
		}
	}
}

func TestKCoreClique(t *testing.T) {
	core := KCoreDecomposition(NewCompleteGraph(5))
	for v, c := range core {
		if c != 4 {
			t.Fatalf("K5 vertex %d core %d, want 4", v, c)
		}
	}
}

func TestSpGEMMMaskedAgainstUnmasked(t *testing.T) {
	g := Symmetrize(ErdosRenyi(60, 5, 54))
	a := g.Adj
	full, _ := sparse.SpGEMMSemiring(a, a, sparse.PlusTimes)
	masked, _ := sparse.SpGEMMMasked(a, a, a, sparse.PlusTimes)
	// Masked result must agree with the full product on the mask
	// pattern and store nothing outside it.
	for i := 0; i < masked.Rows; i++ {
		cols, vals := masked.Row(i)
		for k, c := range cols {
			if a.At(i, c) == 0 {
				t.Fatalf("entry (%d,%d) outside mask", i, c)
			}
			if full.At(i, c) != vals[k] {
				t.Fatalf("masked value (%d,%d) = %v, full %v", i, c, vals[k], full.At(i, c))
			}
		}
	}
}
