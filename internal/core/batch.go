package core

import "repro/internal/sparse"

// BatchGraph is one minibatch's sampled computation graph, extracted
// from a bulk sample: per-layer adjacencies with batch-local column
// indices, plus the frontier vertex lists. It is the unit handed to
// forward/backward propagation (Section 6.2: "Each process extracts a
// minibatch's sampled adjacency matrix A_i from A_S in a training
// step").
type BatchGraph struct {
	// Seeds are the minibatch vertices (depth-0 frontier).
	Seeds []int
	// Adjs[l] connects the depth-l frontier (rows) to the depth-(l+1)
	// frontier (cols); columns are local to this batch and the
	// depth-(l+1) frontier embeds the depth-l frontier as a prefix.
	Adjs []*sparse.CSR
	// Frontiers[d] lists global vertex ids at depth d; Frontiers[0] ==
	// Seeds and Frontiers[len(Adjs)] is the input frontier whose
	// features feed propagation.
	Frontiers [][]int
}

// Depth returns the number of sampled layers.
func (b *BatchGraph) Depth() int { return len(b.Adjs) }

// InputVertices returns the deepest frontier's global vertex ids.
func (b *BatchGraph) InputVertices() []int { return b.Frontiers[len(b.Frontiers)-1] }

// FullGraphBatch returns the BatchGraph covering the entire graph with
// no sampling: every layer aggregates over the full adjacency matrix.
// This is full-batch computation — exact inference for evaluation, and
// the degenerate case the paper's minibatch methods improve on.
func FullGraphBatch(adj *sparse.CSR, layers int) *BatchGraph {
	n := adj.Rows
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	bg := &BatchGraph{Seeds: all}
	for l := 0; l < layers; l++ {
		bg.Adjs = append(bg.Adjs, adj)
		bg.Frontiers = append(bg.Frontiers, all)
	}
	bg.Frontiers = append(bg.Frontiers, all)
	return bg
}

// ExtractBatch slices minibatch i out of the bulk sample, relabeling
// adjacency columns to be batch-local. The batch's adjacencies share no
// storage with the sample's layers, which may be shared read-only.
func (b *BulkSample) ExtractBatch(i int) *BatchGraph {
	bg := &BatchGraph{Seeds: b.Batches[i]}
	for _, ls := range b.Layers {
		rLo, rHi := ls.Rows.BatchPtr[i], ls.Rows.BatchPtr[i+1]
		cLo := ls.Cols.BatchPtr[i]
		// The slice views the layer: shift its columns into the
		// batch-local frame, and copy its values, in storage of the
		// batch's own.
		adj := sparse.SliceRows(ls.Adj, rLo, rHi)
		cols := make([]int, len(adj.ColIdx))
		for k, c := range adj.ColIdx {
			cols[k] = c - cLo
		}
		adj.ColIdx, adj.Val = cols, append([]float64(nil), adj.Val...)
		adj.Cols = ls.Cols.BatchPtr[i+1] - cLo
		bg.Adjs = append(bg.Adjs, adj)
		bg.Frontiers = append(bg.Frontiers, ls.Rows.Batch(i))
	}
	bg.Frontiers = append(bg.Frontiers, b.Layers[len(b.Layers)-1].Cols.Batch(i))
	return bg
}
