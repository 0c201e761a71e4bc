package core

import "repro/internal/sparse"

// FastGCN is the layer-wise importance sampler of Chen et al. (Section
// 2.2.2), expressed in the same matrix framework as LADIES but with
// degree-proportional probabilities that ignore layer dependency.
// Following the paper's observation that FastGCN may sample vertices
// outside the aggregated neighborhood — which wastes samples — this
// implementation restricts support to the aggregated neighborhood and
// weighs each candidate by its global degree (an importance-weighted
// variant; the difference from LADIES is the probability model).
type FastGCN struct {
	// Degrees holds every vertex's out-degree, the one global quantity
	// the probability model reads. Step fills it from the matrix it is
	// given when nil; a driver that only ever holds blocks of A needs it
	// set (a real deployment all-gathers the per-block degree vectors
	// once at startup — n integers, tiny next to the graph).
	Degrees []int
}

// Name implements Sampler.
func (FastGCN) Name() string { return "FastGCN" }

// LayerWise implements Sampler.
func (FastGCN) LayerWise() bool { return true }

// BuildQ is identical to LADIES: one row per batch.
func (FastGCN) BuildQ(cur *Frontier, n int) *sparse.CSR {
	return LADIES{}.BuildQ(cur, n)
}

// Norm replaces each candidate's weight with the square of its global
// degree, normalized per row.
func (fg FastGCN) Norm(p *sparse.CSR) {
	for i := 0; i < p.Rows; i++ {
		cols, vals := p.Row(i)
		for k, c := range cols {
			d := float64(fg.Degrees[c])
			vals[k] = d * d
		}
	}
	p.NormalizeRows()
}

// Step performs one bulk FastGCN layer.
func (fg FastGCN) Step(a *sparse.CSR, cur *Frontier, s int, seed int64) (*LayerSample, Cost) {
	if fg.Degrees == nil {
		fg.Degrees = make([]int, a.Rows)
		for v := range fg.Degrees {
			fg.Degrees[v] = a.RowNNZ(v)
		}
	}
	return layerwiseStep(fg, a, cur, s, seed)
}
