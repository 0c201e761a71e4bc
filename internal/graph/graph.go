// Package graph provides the graph representation, synthetic graph
// generators, and partitioning utilities underlying the distributed
// sampling experiments.
package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/sparse"
)

// Graph is a directed graph stored as a CSR adjacency matrix A where
// A[i][j] = 1 means an edge from i to j (j is an in-neighbor source for
// aggregation at i, matching the paper's P = QA convention where row i
// of A lists the vertices aggregated into i). Adj is immutable once
// wrapped: derived state (the RowCDF table) is built from it once.
type Graph struct {
	Adj *sparse.CSR

	cdfOnce sync.Once
	cdf     *RowCDF
}

// New wraps an adjacency matrix. The matrix must be square.
func New(adj *sparse.CSR) *Graph {
	if adj.Rows != adj.Cols {
		panic(fmt.Sprintf("graph: adjacency must be square, got %dx%d", adj.Rows, adj.Cols))
	}
	return &Graph{Adj: adj}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.Adj.Rows }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return g.Adj.NNZ() }

// AvgDegree returns the average out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices())
}

// Degrees returns the out-degree of every vertex.
func (g *Graph) Degrees() []int {
	out := make([]int, g.NumVertices())
	for i := range out {
		out[i] = g.Adj.RowNNZ(i)
	}
	return out
}

// RMATConfig parameterizes a Kronecker (R-MAT) generator, the standard
// scale-free generator used to stand in for the OGB/HipMCL datasets.
type RMATConfig struct {
	Scale      int     // vertices = 2^Scale
	EdgeFactor int     // directed edges ~= EdgeFactor * vertices
	A, B, C    float64 // R-MAT quadrant probabilities; D = 1-A-B-C
	Seed       int64
}

// RMAT generates a scale-free directed graph via recursive quadrant
// descent, discarding self loops and deduplicating parallel edges. It
// stops at EdgeFactor·2^Scale distinct edges or 20 times that many
// attempts.
func RMAT(cfg RMATConfig) *Graph {
	n := 1 << cfg.Scale
	target := cfg.EdgeFactor * n
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := 1 - cfg.A - cfg.B - cfg.C
	if d < 0 {
		panic("graph: RMAT probabilities exceed 1")
	}
	ab, abc := cfg.A+cfg.B, cfg.A+cfg.B+cfg.C
	coo := sparse.NewCOO(n, n, target)
	seen := NewEdgeSet(target)
	// Attempts are drawn a batch at a time and the batch's slots in
	// seen are touched before any is inserted, so their cache misses
	// overlap. Draws past the stopping attempt are never used, so the
	// graph is the one drawing one attempt at a time gives.
	const batch = 32
	var rs, cs [batch]int
	attempts := 0
	for coo.NNZ() < target && attempts < target*20 {
		m := min(batch, target*20-attempts)
		for k := 0; k < m; k++ {
			// One draw per bit picks a quadrant: [0, A) top-left,
			// [A, A+B) top-right, [A+B, A+B+C) bottom-left, else
			// bottom-right. Written without branches, which the
			// uniform draws would mispredict.
			r, c := 0, 0
			for bit := cfg.Scale - 1; bit >= 0; bit-- {
				p := rng.Float64()
				r |= b2i(p >= ab) << bit
				c |= (b2i(p >= cfg.A) ^ b2i(p >= ab) ^ b2i(p >= abc)) << bit
			}
			rs[k], cs[k] = r, c
		}
		seen.touch(rs[:m], cs[:m])
		for k := 0; k < m && coo.NNZ() < target; k++ {
			attempts++
			if r, c := rs[k], cs[k]; r != c && seen.Add(r, c) {
				coo.Add(r, c, 1)
			}
		}
	}
	return New(coo.ToCSR())
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ErdosRenyi generates a uniform random directed graph with
// approximately avgDegree out-edges per vertex, capped at the n·(n−1)
// edges a simple directed graph has.
//
//gnnvet:allow deadexport — the random graph the graph, core, distsample and gnn tests sample from
func ErdosRenyi(n int, avgDegree float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	target := min(int(avgDegree*float64(n)), n*(n-1))
	coo := sparse.NewCOO(n, n, target)
	seen := NewEdgeSet(target)
	for coo.NNZ() < target {
		r, c := rng.Intn(n), rng.Intn(n)
		if r != c && seen.Add(r, c) {
			coo.Add(r, c, 1)
		}
	}
	return New(coo.ToCSR())
}

// EdgeSet is a set of directed edges (r, c) with r ≠ c and both below
// 2^32: open addressing over one flat array of packed keys, linear
// probing. The array is a power of two at least twice the expected
// count, and doubles before it would pass half full. Key 0 is the self
// loop (0, 0), which is never stored, so it marks an empty slot.
type EdgeSet struct {
	slots []uint64
	shift uint // 64 − log2(len(slots))
	count int
	sink  uint64 // keeps touch's loads from being optimized away
}

// NewEdgeSet returns an empty set sized for expected edges.
func NewEdgeSet(expected int) *EdgeSet {
	s := &EdgeSet{}
	s.alloc(2 * expected)
	return s
}

func (s *EdgeSet) alloc(atLeast int) {
	size, bits := 1, uint(0)
	for size < atLeast {
		size <<= 1
		bits++
	}
	s.slots = make([]uint64, size)
	s.shift = 64 - bits
}

// Add inserts edge (r, c) and reports whether it was absent.
func (s *EdgeSet) Add(r, c int) bool {
	if r == c {
		panic(fmt.Sprintf("graph: EdgeSet cannot hold self loop (%d,%d)", r, c))
	}
	if 2*(s.count+1) > len(s.slots) {
		old := s.slots
		s.alloc(2 * len(old))
		for _, k := range old {
			if k != 0 {
				s.insert(k)
			}
		}
	}
	if !s.insert(edgeKey(r, c)) {
		return false
	}
	s.count++
	return true
}

func edgeKey(r, c int) uint64 { return uint64(r)<<32 | uint64(c) }

// home is key's first probe slot. Fibonacci hashing: the top bits of
// key·2^64/φ.
func (s *EdgeSet) home(key uint64) uint64 { return (key * 0x9E3779B97F4A7C15) >> s.shift }

func (s *EdgeSet) insert(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := s.home(key); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return false
		case 0:
			s.slots[i] = key
			return true
		}
	}
}

// touch loads the home slot of each edge (rs[k], cs[k]). The loads are
// independent, so a batch's cache misses overlap, and the inserts that
// follow find their slots cached.
func (s *EdgeSet) touch(rs, cs []int) {
	var x uint64
	for k := range rs {
		x += s.slots[s.home(edgeKey(rs[k], cs[k]))]
	}
	s.sink += x
}

// EnsureMinOutDegree adds uniform random edges so that every vertex has
// at least minDeg out-neighbors (n−1 when fewer exist). GNN sampling
// requires every frontier vertex to have someone to sample. The output
// is binary and is written row by row: a row already at minDeg is
// copied, a shorter one draws its missing neighbors, checking each
// draw against the short row, and is then sorted.
func EnsureMinOutDegree(g *Graph, minDeg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	want := min(minDeg, n-1)
	total := 0
	for i := 0; i < n; i++ {
		total += max(g.Adj.RowNNZ(i), want)
	}
	adj := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, total), Val: make([]float64, total)}
	for i := 0; i < n; i++ {
		cols, _ := g.Adj.Row(i)
		start := len(adj.ColIdx)
		adj.ColIdx = append(adj.ColIdx, cols...)
		for len(adj.ColIdx)-start < want {
			c := rng.Intn(n)
			if c == i || slices.Contains(adj.ColIdx[start:], c) {
				continue
			}
			adj.ColIdx = append(adj.ColIdx, c)
		}
		if len(cols) < want {
			slices.Sort(adj.ColIdx[start:])
		}
		adj.RowPtr[i+1] = len(adj.ColIdx)
	}
	for k := range adj.Val {
		adj.Val[k] = 1
	}
	return New(adj)
}
