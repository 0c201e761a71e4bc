package distsample

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// ReplicatedBatches splits the global batch list 1-D across all p
// ranks: rank i owns a contiguous k/p share of the minibatches
// (Section 5.1's block row distribution of the stacked Q).
func ReplicatedBatches(p, rank int, batches [][]int) [][]int {
	lo, hi := graph.BlockRowRange(len(batches), p, rank)
	return batches[lo:hi]
}

// SampleReplicated runs bulk sampling over this rank's local batches
// with the Graph Replicated algorithm: A is replicated, Q is
// partitioned, and the whole step — probability generation, sampling,
// extraction — is local (Section 5.1 eliminates all communication).
// The sampler's operation counts are charged to the rank's clock under
// the probability/sampling/extraction phases.
func SampleReplicated(r *cluster.Rank, sampler core.Sampler, a *sparse.CSR, batches [][]int, fanouts []int, seed int64) *core.BulkSample {
	out := &core.BulkSample{Batches: batches}
	if len(batches) == 0 {
		return out
	}
	cur := core.NewFrontier(batches)
	cur.MustBeWithin(a.Rows)
	for l, fan := range fanouts {
		ls, cost := sampler.Step(a, cur, fan, seed+int64(l)*1e9)
		r.SetPhase(PhaseProbability)
		r.Charge(cluster.Work{SparseOps: cost.ProbFlops})
		r.SetPhase(PhaseSampling)
		r.Charge(cluster.Work{SparseOps: cost.SampleOps})
		r.SetPhase(PhaseExtraction)
		r.Charge(cluster.Work{SparseOps: cost.ExtractOps, Kernels: cost.Kernels})
		out.Layers = append(out.Layers, ls)
		out.Cost.Add(cost)
		cur = ls.Cols
	}
	return out
}
