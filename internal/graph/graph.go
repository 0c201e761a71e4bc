// Package graph provides the graph representation, synthetic graph
// generators, and partitioning utilities underlying the distributed
// sampling experiments.
package graph

import (
	"fmt"
	"math/rand"
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
// descent, discarding self loops and deduplicating parallel edges.
func RMAT(cfg RMATConfig) *Graph {
	n := 1 << cfg.Scale
	target := cfg.EdgeFactor * n
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := 1 - cfg.A - cfg.B - cfg.C
	if d < 0 {
		panic("graph: RMAT probabilities exceed 1")
	}
	coo := sparse.NewCOO(n, n, target)
	seen := make(map[int64]struct{}, target)
	attempts := 0
	for coo.NNZ() < target && attempts < target*20 {
		attempts++
		r, c := 0, 0
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			p := rng.Float64()
			switch {
			case p < cfg.A:
				// top-left: nothing to add
			case p < cfg.A+cfg.B:
				c |= 1 << bit
			case p < cfg.A+cfg.B+cfg.C:
				r |= 1 << bit
			default:
				r |= 1 << bit
				c |= 1 << bit
			}
		}
		if r == c {
			continue
		}
		key := int64(r)<<32 | int64(c)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		coo.Add(r, c, 1)
	}
	return New(coo.ToCSR())
}

// ErdosRenyi generates a uniform random directed graph with
// approximately avgDegree out-edges per vertex.
//
//gnnvet:allow deadexport — the random graph the graph, core, distsample and gnn tests sample from
func ErdosRenyi(n int, avgDegree float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	target := int(avgDegree * float64(n))
	coo := sparse.NewCOO(n, n, target)
	seen := make(map[int64]struct{}, target)
	for coo.NNZ() < target {
		r, c := rng.Intn(n), rng.Intn(n)
		if r == c {
			continue
		}
		key := int64(r)<<32 | int64(c)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		coo.Add(r, c, 1)
	}
	return New(coo.ToCSR())
}

// EnsureMinOutDegree adds uniform random edges so that every vertex has
// at least minDeg out-neighbors. GNN sampling requires every frontier
// vertex to have someone to sample.
func EnsureMinOutDegree(g *Graph, minDeg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	coo := sparse.NewCOO(n, n, g.NumEdges()+n)
	for i := 0; i < n; i++ {
		cols, _ := g.Adj.Row(i)
		for _, c := range cols {
			coo.Add(i, c, 1)
		}
		have := map[int]struct{}{}
		for _, c := range cols {
			have[c] = struct{}{}
		}
		for len(have) < minDeg && len(have) < n-1 {
			c := rng.Intn(n)
			if c == i {
				continue
			}
			if _, dup := have[c]; dup {
				continue
			}
			have[c] = struct{}{}
			coo.Add(i, c, 1)
		}
	}
	adj := coo.ToCSR()
	// Parallel edges introduced by duplicate Adds were summed; clamp
	// values back to 1 to keep the adjacency binary.
	adj.Apply(func(v float64) float64 {
		if v > 0 {
			return 1
		}
		return 0
	})
	return New(adj)
}
