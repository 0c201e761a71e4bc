package distsample

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// OneD is the 1D block-row distributed SpGEMM baseline the paper's
// 1.5D choice is justified against (Section 5.2 cites Buluç & Gilbert:
// "1D SpGEMM algorithms are unscalable, where time increases with p").
// Both Q and A are split into p block rows with no replication; every
// stage broadcasts one whole block row of A to all ranks.
type OneD struct {
	N      int
	ALocal *sparse.CSR // this rank's block row of A (compact)
	Lo, Hi int
	P      int

	ws oneDArena
}

// oneDArena is one rank's workspace for the 1D stage loop: the Q_ik
// column blocks, the stage product and the two buffers the running sum
// alternates between. None of it crosses the wire (the broadcast
// payload is the owner's ALocal), so reuse needs no rendezvous
// argument: SpGEMM1D's result is valid until the rank's next call.
//
//gnnvet:arena
type oneDArena struct {
	sparse.Scratch
	prod sparse.CSR
	sums [2]sparse.CSR
	srcs [2]*sparse.CSR
}

// NewOneDSet slices A into p block rows, one per rank.
func NewOneDSet(p int, a *sparse.CSR) []*OneD {
	out := make([]*OneD, p)
	for rank := 0; rank < p; rank++ {
		lo, hi := graph.BlockRowRange(a.Rows, p, rank)
		out[rank] = &OneD{
			N:      a.Rows,
			ALocal: sparse.SliceRows(a, lo, hi),
			Lo:     lo,
			Hi:     hi,
			P:      p,
		}
	}
	return out
}

// SpGEMM1D computes P = Q·A for this rank's block row of Q: p stages,
// each broadcasting block row A_k from its owner to everyone
// (sparsity-oblivious — the scheme's defining weakness: communication
// volume grows with p because every rank receives every block). The
// result lives in the rank's workspace and is valid until its next call.
func (od *OneD) SpGEMM1D(r *cluster.Rank, world *cluster.Comm, q *sparse.CSR) *sparse.CSR {
	ws := &od.ws
	lo, hi := ws.BlockBounds(od.P)
	for k := range lo {
		lo[k], hi[k] = graph.BlockRowRange(od.N, od.P, k)
	}
	qiks := ws.SliceColBlocks(q, lo, hi)
	var sum *sparse.CSR
	for k := 0; k < od.P; k++ {
		var block *sparse.CSR
		if world.LocalIndex(r) == k {
			block = od.ALocal
		}
		blockK := cluster.Broadcast(world, r, k, block, blockBytes(block))
		r.ChargeMem(int64(q.NNZ()) * 8) // block slicing pass
		prod, flops := ws.SpGEMM(&ws.prod, qiks[k], blockK)
		r.ChargeSparse(flops)
		srcs := ws.srcs[:0]
		if sum != nil {
			srcs = append(srcs, sum)
		}
		sum = ws.MergeCSRInto(&ws.sums[k%2], append(srcs, prod))
		r.ChargeMem(int64(sum.NNZ()) * 16)
		r.ChargeKernels(2)
	}
	return sum
}

// SampleSAGE1D runs bulk GraphSAGE sampling with the 1D SpGEMM — the
// scalability baseline for the 1.5D ablation. The sample's Cost stays
// zero (see core.BulkSample).
func SampleSAGE1D(r *cluster.Rank, od *OneD, world *cluster.Comm, batches [][]int, fanouts []int, seed int64) *core.BulkSample {
	out := &core.BulkSample{Batches: batches}
	cur := core.NewFrontier(batches)
	sg := core.SAGE{}
	for l, fan := range fanouts {
		layerSeed := seed + int64(l)*1e9

		r.SetPhase(PhaseProbability)
		q := sg.BuildQ(cur, od.N)
		r.ChargeKernels(1)
		p := od.SpGEMM1D(r, world, q)

		r.SetPhase(PhaseSampling)
		ls, cost := sg.FinishStep(p, cur, fan, layerSeed)
		r.ChargeSparse(cost.SampleOps)
		r.SetPhase(PhaseExtraction)
		r.ChargeSparse(cost.ExtractOps)
		r.ChargeKernels(3)

		out.Layers = append(out.Layers, ls)
		cur = ls.Cols
	}
	return out
}
