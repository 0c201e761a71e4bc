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

	a  *sparse.CSR // the matrix the set sliced, which the reader of P names
	ws oneDArena
}

// oneDArena is one rank's workspace for the 1D stage loop: the Q_ik
// column blocks, the block each stage received (its owner's ALocal,
// read-only), the reader of P over them and the draw's picks. None of
// it crosses the wire, so reuse needs no rendezvous argument:
// SpGEMM1D's result is valid until the rank's next call.
//
//gnnvet:arena
type oneDArena struct {
	sparse.Scratch
	blocks []*sparse.CSR
	view   stageRows
	picks  [1]core.RowPicks
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
			a:      a,
		}
	}
	return out
}

// SpGEMM1D computes P = Q·A for this rank's block row of Q, whose every
// row must hold one unit entry (GraphSAGE's Q): p stages, each
// broadcasting block row A_k from its owner to everyone
// (sparsity-oblivious — the scheme's defining weakness: communication
// volume grows with p because every rank receives every block). Row i
// of P is the row of A that Q selects, so the host multiplies nothing:
// it returns a reader of P's rows in the blocks the stages received
// (stageRows), valid until the rank's next call. Each stage is charged
// its product's flop bound (gatherFlops) and the running sum's
// nonzeros, the flops so far: each row of Q lands in one block.
func (od *OneD) SpGEMM1D(r *cluster.Rank, world *cluster.Comm, q *sparse.CSR) core.RowReader {
	ws := &od.ws
	lo, hi := ws.BlockBounds(od.P)
	for k := range lo {
		lo[k], hi[k] = graph.BlockRowRange(od.N, od.P, k)
	}
	qiks := ws.SliceColBlocks(q, lo, hi)
	ws.blocks = ws.blocks[:0]
	cum := 0
	for k := 0; k < od.P; k++ {
		var block *sparse.CSR
		if world.LocalIndex(r) == k {
			block = od.ALocal
		}
		blockK := cluster.Broadcast(world, r, k, block, blockBytes(block))
		ws.blocks = append(ws.blocks, blockK)
		r.Charge(cluster.Work{MemBytes: int64(q.NNZ()) * 8}) // block slicing pass
		flops := gatherFlops(qiks[k], blockK)
		cum += int(flops)
		r.Charge(cluster.Work{SparseOps: flops, MemBytes: int64(cum) * 16, Kernels: 2})
	}
	ws.view = stageRows{a: od.a, of: q.ColIdx[:q.Rows], blocks: ws.blocks}
	return &ws.view
}

// SampleSAGE1D runs bulk GraphSAGE sampling with the 1D SpGEMM — the
// scalability baseline for the 1.5D ablation — drawing every layer from
// P's rows where the stages received them (core.SAGE.FinishRows over
// all rows, then core.JoinRows). The sample's Cost stays zero (see
// core.BulkSample).
func SampleSAGE1D(r *cluster.Rank, od *OneD, world *cluster.Comm, sg core.SAGE, batches [][]int, fanouts []int, seed int64) *core.BulkSample {
	out := &core.BulkSample{Batches: batches}
	cur := core.NewFrontier(batches)
	picks := od.ws.picks[:]
	for l, fan := range fanouts {
		layerSeed := seed + int64(l)*1e9

		r.SetPhase(PhaseProbability)
		q := sg.BuildQ(cur, od.N)
		r.Charge(cluster.Work{Kernels: 1})
		p := od.SpGEMM1D(r, world, q)

		r.SetPhase(PhaseSampling)
		sg.FinishRows(p, cur.Vertices, 0, cur.Len(), fan, layerSeed, &picks[0])
		ls, cost := core.JoinRows(cur, picks)
		r.Charge(cluster.Work{SparseOps: cost.SampleOps})
		r.SetPhase(PhaseExtraction)
		r.Charge(cluster.Work{SparseOps: cost.ExtractOps, Kernels: 3})

		out.Layers = append(out.Layers, ls)
		cur = ls.Cols
	}
	return out
}
