package core

import (
	"sort"

	"repro/internal/sparse"
)

// LADIES is the layer-wise dependency sampler of Zou et al. (Section
// 4.2): each batch samples s vertices from the aggregated neighborhood
// of its current layer, with vertex v selected with probability
// p_v = e_v^2 / Σ_u e_u^2 where e_v is v's edge count into the layer.
// The sampled adjacency contains every edge between the current layer
// and the sampled vertex set.
type LADIES struct {
	// Reweight divides every sampled edge value by s·p_v — the
	// importance weighting of Zou et al. §3.2 that makes sampled
	// aggregation an (approximately, for sampling without
	// replacement) unbiased estimator of exact aggregation. The
	// paper's performance study uses unweighted binary adjacencies;
	// enable this for accuracy-sensitive training.
	Reweight bool
}

// Name implements Sampler.
func (LADIES) Name() string { return "LADIES" }

// LayerWise implements Sampler.
func (LADIES) LayerWise() bool { return true }

// BuildQ constructs the stacked sampler matrix Q^l for layer-wise
// sampling: one row per batch holding a unit entry per frontier vertex
// (Section 4.2.1).
func (LADIES) BuildQ(cur *Frontier, n int) *sparse.CSR {
	k := cur.K()
	q := &sparse.CSR{Rows: k, Cols: n, RowPtr: make([]int, k+1)}
	for b := 0; b < k; b++ {
		verts := append([]int(nil), cur.Batch(b)...)
		sort.Ints(verts)
		// Deduplicate: Q is binary and frontier repeats collapse.
		w := 0
		for i, v := range verts {
			if i == 0 || v != verts[i-1] {
				verts[w] = v
				w++
			}
		}
		verts = verts[:w]
		q.ColIdx = append(q.ColIdx, verts...)
		for range verts {
			q.Val = append(q.Val, 1)
		}
		q.RowPtr[b+1] = len(q.ColIdx)
	}
	return q
}

// Norm converts the neighbor-count row e into LADIES probabilities by
// squaring each entry and normalizing the row (p_v ∝ e_v^2).
func (LADIES) Norm(p *sparse.CSR) {
	p.Apply(func(v float64) float64 { return v * v })
	p.NormalizeRows()
}

// Step performs one bulk LADIES layer: P ← Q·A with LADIES
// normalization, ITS sampling of s vertices per batch, then row
// extraction (Q_R·A) and per-batch column extraction — the
// block-diagonal bulk extraction of Section 4.2.4.
func (ld LADIES) Step(a *sparse.CSR, cur *Frontier, s int, seed int64) (*LayerSample, Cost) {
	return layerwiseStep(ld, a, cur, s, seed)
}

// layerwiseStep is the shared layer-wise bulk step: probability
// generation, per-batch ITS, and row+column extraction.
func layerwiseStep(ls Sampler, a *sparse.CSR, cur *Frontier, s int, seed int64) (*LayerSample, Cost) {
	var cost Cost
	q := ls.BuildQ(cur, a.Cols)
	p, flops := sparse.SpGEMM(q, a)
	cost.ProbFlops += flops
	ls.Norm(p)
	cost.Kernels += 3

	sampled, probs, c2 := SampleLayerwise(p, s, seed)
	cost.Add(c2)

	// EXTRACT: row extraction A_R = Q_R · A for the stacked frontier,
	// then per-batch column extraction onto each batch's sampled set —
	// the batched small SpGEMMs standing in for the block-diagonal
	// product of Section 4.2.4.
	ar := sparse.ExtractRows(a, cur.Vertices)
	cost.ExtractOps += int64(ar.NNZ())
	cost.Kernels++

	var weights [][]float64
	if ld, ok := ls.(LADIES); ok && ld.Reweight {
		weights = make([][]float64, len(sampled))
		for b := range sampled {
			w := make([]float64, len(sampled[b]))
			for j, pv := range probs[b] {
				if pv > 0 {
					w[j] = 1 / (float64(s) * pv)
				}
			}
			weights[b] = w
		}
	}
	lsam, c3 := ExtractLayerwise(ar, cur, sampled, weights)
	cost.Add(c3)
	return lsam, cost
}

// SampleLayerwise draws s vertices per batch row of the normalized
// probability matrix P with ITS. It returns the sampled global vertex
// ids per batch (sorted) and each one's selection probability, which
// importance reweighting divides by. Exposed for the distributed
// drivers, which compute P with a distributed SpGEMM.
func SampleLayerwise(p *sparse.CSR, s int, seed int64) ([][]int, [][]float64, Cost) {
	var cost Cost
	sampled := make([][]int, p.Rows)
	probs := make([][]float64, p.Rows)
	var rs RowSampler
	for b := 0; b < p.Rows; b++ {
		cols, vals := p.Row(b)
		sel, ops := rs.Sample(vals, s, seed, b)
		cost.SampleOps += ops
		sv := make([]int, len(sel))
		pv := make([]float64, len(sel))
		for j, t := range sel {
			sv[j] = cols[t]
			pv[j] = vals[t]
		}
		sampled[b] = sv // already sorted: sel ascending over sorted cols
		probs[b] = pv
	}
	cost.Kernels++
	return sampled, probs, cost
}

// ExtractLayerwise builds the layer-wise sampled adjacency given A_R
// (the frontier rows of A, stacked in cur order — the row-extraction
// product Q_R·A) and the per-batch sampled vertex sets, multiplying the
// optional per-batch importance weights onto the sampled columns' edge
// values (nil weights leave values untouched). Exposed for the
// distributed drivers.
func ExtractLayerwise(ar *sparse.CSR, cur *Frontier, sampled [][]int, weights [][]float64) (*LayerSample, Cost) {
	var cost Cost
	k := cur.K()
	next := &Frontier{BatchPtr: make([]int, k+1)}
	adj := &sparse.CSR{Rows: cur.Len(), RowPtr: make([]int, cur.Len()+1)}
	colCursor := 0
	for b := 0; b < k; b++ {
		rb := cur.Batch(b)
		next.Vertices = append(next.Vertices, rb...)
		colCursor += len(rb)
		sampBase := colCursor
		colCursor += len(sampled[b])
		next.Vertices = append(next.Vertices, sampled[b]...)
		next.BatchPtr[b+1] = len(next.Vertices)

		// Column-extract this batch's rows of A_R onto sampled[b].
		pos := make(map[int]int, len(sampled[b]))
		for j, v := range sampled[b] {
			pos[v] = j
		}
		for i := cur.BatchPtr[b]; i < cur.BatchPtr[b+1]; i++ {
			cols, vals := ar.Row(i)
			for t, c := range cols {
				if j, ok := pos[c]; ok {
					v := vals[t]
					if weights != nil {
						v *= weights[b][j]
					}
					adj.ColIdx = append(adj.ColIdx, sampBase+j)
					adj.Val = append(adj.Val, v)
				}
			}
			adj.RowPtr[i+1] = len(adj.ColIdx)
			cost.ExtractOps += int64(len(cols))
		}
	}
	adj.Cols = colCursor
	cost.Kernels++

	return &LayerSample{Adj: adj, Rows: cur, Cols: next}, cost
}
