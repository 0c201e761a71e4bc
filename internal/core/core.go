// Package core implements the paper's primary contribution: matrix-based
// bulk sampling of GNN minibatches (Tripathy, Yelick, Buluç — MLSys 2024).
//
// Sampling a minibatch is expressed as sparse matrix algebra following
// Algorithm 1 of the paper:
//
//	for l = L down to 1:
//	    P        ← Q^l · A          (generate probability distributions)
//	    P        ← NORM(P)          (sampler-dependent normalization)
//	    Q^{l-1}  ← SAMPLE(P, b, s)  (inverse transform sampling per row)
//	    A^l      ← EXTRACT(A, Q^l, Q^{l-1})
//
// Multiple minibatches are sampled in bulk by vertically stacking the
// per-batch Q, P and A^l matrices (Equation 1), which amortizes
// per-batch sampling overheads and turns the whole epoch's sampling
// into a handful of large SpGEMM calls.
//
// The package provides the GraphSAGE (node-wise), LADIES and FastGCN
// (layer-wise) samplers on top of shared building blocks: sampler
// matrix construction, normalization, inverse transform sampling, and
// row/column extraction. internal/distsample reuses the same blocks
// with distributed SpGEMM drivers.
//
// What a step returns as Cost is always the matrix algorithm's work —
// that is what the simulated device is charged. What the host executes
// to produce the sample may be less. Wherever Q has one unit entry per
// row — GraphSAGE's Q^l, and a layer-wise EXTRACT's row selector Q_R —
// row i of Q·A is the row of A that row i of Q selects, so no driver
// multiplies: the node-wise draw (SAGE.FinishRows) and the layer-wise
// extraction (ExtractLayerwise) read those rows in place through a
// RowReader. With A whole the reader is A itself (Step), and
// GraphSAGE's NORM + prefix sums come from the graph's row-CDF table;
// with A in block rows (internal/distsample's 1D and 1.5D drivers) it
// reads the blocks of A the driver's stages received. The matrix blocks
// as Algorithm 1 writes them (BuildQ, sparse.SpGEMM, Norm) are what runs
// when Q's rows have many nonzeros (LADIES's and FastGCN's P), and, with
// SAGE.FinishStep sampling a formed P, what the tests hold the in-place
// paths equal to.
package core

import (
	"fmt"

	"repro/internal/sparse"
)

// Frontier is a set of vertices per batch at one sampling depth,
// stacked across the k batches of a bulk call. Vertices[BatchPtr[i]:
// BatchPtr[i+1]] are batch i's frontier vertices (global vertex ids,
// possibly with duplicates — node-wise sampling trees do not
// deduplicate).
type Frontier struct {
	Vertices []int
	BatchPtr []int
}

// NewFrontier builds a frontier from per-batch vertex lists.
func NewFrontier(batches [][]int) *Frontier {
	f := &Frontier{BatchPtr: make([]int, len(batches)+1)}
	for i, b := range batches {
		f.Vertices = append(f.Vertices, b...)
		f.BatchPtr[i+1] = len(f.Vertices)
	}
	return f
}

// MustBeWithin panics unless every frontier vertex is a vertex of a
// graph with n vertices. The bulk drivers call it on the batch frontier
// they build from caller input, so a bad id fails by name rather than
// as an index panic inside a kernel; deeper frontiers hold column ids
// of A.
func (f *Frontier) MustBeWithin(n int) {
	for _, v := range f.Vertices {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("core: frontier vertex %d outside graph of %d vertices", v, n))
		}
	}
}

// K returns the number of batches.
func (f *Frontier) K() int { return len(f.BatchPtr) - 1 }

// Len returns the total number of stacked vertices.
func (f *Frontier) Len() int { return len(f.Vertices) }

// Batch returns batch i's vertices (aliased; read-only).
func (f *Frontier) Batch(i int) []int {
	return f.Vertices[f.BatchPtr[i]:f.BatchPtr[i+1]]
}

// Cost tallies the operation counts of one sampling step so callers
// can charge simulated device time. All counts are device-agnostic.
type Cost struct {
	ProbFlops  int64 // SpGEMM work for P = Q·A (and LADIES extraction products)
	SampleOps  int64 // prefix sums and binary searches in ITS
	ExtractOps int64 // extraction/compaction work
	Kernels    int   // number of device kernel launches
}

// Add accumulates another cost into c.
func (c *Cost) Add(o Cost) {
	c.ProbFlops += o.ProbFlops
	c.SampleOps += o.SampleOps
	c.ExtractOps += o.ExtractOps
	c.Kernels += o.Kernels
}

// Total returns the total operation count (for coarse charging).
func (c Cost) Total() int64 { return c.ProbFlops + c.SampleOps + c.ExtractOps }

// LayerSample is the output of one layer of Algorithm 1 for a bulk of
// k batches.
//
// Adj is the stacked sampled adjacency: its rows correspond to the
// current frontier Rows (the layer-l vertices of every batch,
// concatenated) and its columns to the next frontier Cols. To support
// GNN propagation, Cols always embeds Rows as a prefix (self vertices
// first, then the newly sampled vertices), so Adj's column space is
// "self ++ sampled". Adj itself contains only the sampled edges of the
// paper's A^l; the self prefix merely fixes the column indexing.
type LayerSample struct {
	Adj  *sparse.CSR
	Rows *Frontier // layer-l frontier (rows of Adj)
	Cols *Frontier // layer-(l-1) frontier: Rows ++ newly sampled
}

// BulkSample is the output of a full bulk sampling call: one
// LayerSample per GNN layer, ordered from the batch layer (paper layer
// L) to the deepest layer (paper layer 1). Layers[len-1].Cols is the
// input frontier whose feature vectors must be fetched.
type BulkSample struct {
	Batches [][]int
	Layers  []*LayerSample
	// Cost sums the Cost of every layer's Step. Only drivers that run
	// Step fill it (SampleBulk, distsample.SampleReplicated); the 1.5D
	// and 1D drivers, which run the product themselves and charge each
	// phase on the rank's clock as they go, leave it zero.
	Cost Cost
}

// SampleBulk runs Algorithm 1 for all layers over k batches in bulk.
// fanouts[0] is the fanout at the batch layer (paper layer L);
// fanouts[len-1] is the deepest. For layer-wise samplers the fanout is
// the per-batch layer size s.
func SampleBulk(s Sampler, a *sparse.CSR, batches [][]int, fanouts []int, seed int64) *BulkSample {
	if len(fanouts) == 0 {
		panic("core: need at least one fanout")
	}
	out := &BulkSample{Batches: batches}
	cur := NewFrontier(batches)
	cur.MustBeWithin(a.Rows)
	for l, fan := range fanouts {
		ls, cost := s.Step(a, cur, fan, seed+int64(l)*1e9)
		out.Layers = append(out.Layers, ls)
		out.Cost.Add(cost)
		cur = ls.Cols
	}
	return out
}

// Validate checks structural invariants of a bulk sample; used by
// tests and the distributed drivers.
func (b *BulkSample) Validate(n int) error {
	for li, ls := range b.Layers {
		if err := ls.Adj.Validate(); err != nil {
			return fmt.Errorf("layer %d: %w", li, err)
		}
		if ls.Adj.Rows != ls.Rows.Len() {
			return fmt.Errorf("layer %d: adj has %d rows, frontier %d", li, ls.Adj.Rows, ls.Rows.Len())
		}
		if ls.Adj.Cols != ls.Cols.Len() {
			return fmt.Errorf("layer %d: adj has %d cols, frontier %d", li, ls.Adj.Cols, ls.Cols.Len())
		}
		for _, v := range ls.Cols.Vertices {
			if v < 0 || v >= n {
				return fmt.Errorf("layer %d: frontier vertex %d outside graph of %d", li, v, n)
			}
		}
		// Cols must embed Rows as a prefix batch by batch.
		for i := 0; i < ls.Rows.K(); i++ {
			rb, cb := ls.Rows.Batch(i), ls.Cols.Batch(i)
			if len(cb) < len(rb) {
				return fmt.Errorf("layer %d batch %d: col frontier smaller than row frontier", li, i)
			}
			for j := range rb {
				if cb[j] != rb[j] {
					return fmt.Errorf("layer %d batch %d: self prefix broken at %d", li, i, j)
				}
			}
		}
	}
	return nil
}
