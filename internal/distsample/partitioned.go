// Package distsample implements the paper's two distributed sampling
// algorithms (Section 5):
//
//   - Graph Replicated (Section 5.1): the adjacency matrix is
//     replicated on every device and the stacked sampler matrix Q is
//     1-D block-row partitioned, so the entire sampling step runs
//     without communication.
//   - Graph Partitioned (Section 5.2): Q and A are partitioned in
//     block rows over a p/c × c process grid; P = Q·A runs as the
//     staged, sparsity-aware 1.5D SpGEMM of Algorithm 2 (gather the
//     needed column ids, send only the referenced rows of A, then
//     all-reduce partial products across process rows).
//
// Both drivers run on the simulated cluster of internal/cluster and
// charge each phase (probability / sampling / extraction) on the
// per-rank clocks, including the communication split that Figure 7
// reports. The charges are always the matrix algorithm's; the host does
// less where the sample allows it. The replicated driver runs each
// sampler's Step (for GraphSAGE, a lookup of A's rows). The partitioned
// driver runs the staged collectives with their real payloads, but for
// a Q with one entry per row its stage products and row fold are row
// copies, its c replicas share one read-only product per process row,
// and GraphSAGE's NORM is fused into the sampling prefix sums.
package distsample

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/freelist"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// Phase names used for the Figure 7 breakdowns.
const (
	PhaseProbability = "probability"
	PhaseSampling    = "sampling"
	PhaseExtraction  = "extraction"
)

// Partitioned is the per-grid-row state of the Graph Partitioned
// algorithm: one block row of A (compact, rows [Lo, Hi) of the global
// matrix), shared by the c replicas of a process row.
type Partitioned struct {
	Grid *cluster.Grid
	N    int
	// ALocal holds rows [Lo, Hi) of A with row indices shifted to
	// local (row g of A is ALocal row g-Lo).
	ALocal *sparse.CSR
	Lo, Hi int
	// SparsityAware selects Algorithm 2's row-fetching scheme; when
	// false the owner broadcasts its whole block row each stage (the
	// sparsity-oblivious baseline the paper contrasts against).
	SparsityAware bool

	// arenas is the set's stage arenas, shared by every block: rank r's
	// is arenas[r], so grid slot (i, j) — the arena of block row i's
	// column-j replica — is arenas[i*c+j]. See stageArena for the
	// reuse-safety argument.
	arenas []*stageArena
}

// freeArenaSets holds the arena lists of released sets (see
// NewPartitionedSet).
var freeArenaSets freelist.List[[]*stageArena]

// NewPartitionedSet slices A into the grid's block rows, returning the
// per-rank state (index by rank id). Replicas within a process row
// share the same block storage, like real replicas would hold copies.
//
// The set's stage arenas are a whole released set's, when the process
// has one: reuse is by position, not arena by arena, because positions
// have roles — a process row's column-0 arena holds the row's fold
// total, owners hold response payloads — so a recycled set at the same
// grid shape regrows nothing. Give the set back with
// ReleasePartitionedSet once no rank can still read it.
func NewPartitionedSet(g *cluster.Grid, a *sparse.CSR, sparsityAware bool) []*Partitioned {
	if g.Rows%g.C != 0 {
		panic(fmt.Sprintf("distsample: 1.5D algorithm needs c^2 | p (p=%d c=%d)", g.P, g.C))
	}
	arenas, _ := freeArenaSets.Take()
	if len(arenas) < g.P {
		arenas = append(arenas, make([]*stageArena, g.P-len(arenas))...)
	}
	blocks := make([]*Partitioned, g.Rows)
	for i := 0; i < g.Rows; i++ {
		lo, hi := graph.BlockRowRange(a.Rows, g.Rows, i)
		blocks[i] = &Partitioned{
			Grid:          g,
			N:             a.Rows,
			ALocal:        sparse.SliceRows(a, lo, hi),
			Lo:            lo,
			Hi:            hi,
			SparsityAware: sparsityAware,
			arenas:        arenas,
		}
	}
	out := make([]*Partitioned, g.P)
	for rank := 0; rank < g.P; rank++ {
		out[rank] = blocks[g.RowIndex(rank)]
	}
	return out
}

// ReleasePartitionedSet hands the set's stage arenas to the next
// NewPartitionedSet. Call it only once every rank is done with the set
// — after the cluster run that used it has returned without error: a
// member may read another's arena (a payload, the row total) until it
// leaves the collective, and a failed run leaves arenas mid-call. The
// set must not be used afterwards.
func ReleasePartitionedSet(set []*Partitioned) {
	arenas := set[0].arenas
	for _, a := range arenas {
		if a != nil {
			// total points into another arena of the set; nextTag keeps
			// counting, because stamp still holds the old tags.
			a.total = nil
		}
	}
	freeArenaSets.Put(arenas)
}

// rowPayload carries requested rows of an A block from the owner to a
// requester: rows appear in the requester's request order.
type rowPayload struct {
	rows *sparse.CSR
}

func payloadBytes(p *rowPayload) int {
	if p == nil || p.rows == nil {
		return 0
	}
	return p.rows.Bytes()
}

// SpGEMM15D computes P = Q·A for this rank's block row of Q, running
// the staged block algorithm of Algorithm 2 on the process grid. Q's
// columns span the full vertex range [0, N). The result is the full
// product for this rank's rows — one matrix per process row, the fold
// total its c members share. It is read-only: it lives in the process
// row's stage arenas, is valid until the row's next SpGEMM15D call on
// this set (or the set's release), and must not be passed back in as
// Q. The collective schedules — the per-stage gathers/scatters and the row
// all-reduce — charge under the cost model's Collectives table
// (cluster.CollectiveAlgorithm), so algorithm comparisons reach the
// 1.5D sampling path without any plumbing here.
//
// What the device is charged is the matrix algorithm: every stage
// multiply, memory pass and collective payload below. What the host runs
// may be less: when every row of Q holds one entry (GraphSAGE's Q, any
// Q_R), each stage product is a gather of rows of A_k and each row of
// the fold has one source, so the kernels copy rows instead of
// accumulating (sparse.Scratch.SpGEMM, MergeCSRInto) and the running
// nonzero count is the sum of the stage products' sizes.
func (ps *Partitioned) SpGEMM15D(r *cluster.Rank, q *sparse.CSR) *sparse.CSR {
	g := ps.Grid
	j := g.ColIndex(r.ID)
	stages := g.Rows / g.C // the q = p/c^2 stages of Algorithm 2
	// Collectives go through the clone dedicated to the driving stream,
	// so a sampling stage prefetching on its own stream never shares a
	// rendezvous with the feature-fetch all-to-allv on the same grid
	// communicators (stream-safe collectives; see cluster.Comm.ForStream).
	colComm := g.ColComm(r.ID).ForStream(r)
	rowComm := g.RowComm(r.ID).ForStream(r)

	// All buffers below come from the rank's stage arena;
	// every charge and collective is unchanged from the allocating
	// version, so simulated time is bit-identical (see stageArena).
	ar := ps.arena(r.ID)
	lo, hi := ar.BlockBounds(stages)
	for t := 0; t < stages; t++ {
		lo[t], hi[t] = graph.BlockRowRange(ps.N, g.Rows, j*stages+t)
	}
	// One bucketing pass slices every stage's Q_ik block (this rank
	// only ever multiplies the p/c^2 block rows its column handles).
	qiks := ar.SliceColBlocks(q, lo, hi)

	// Stage products stay in per-stage arenas and merge once, inside
	// the final all-reduce; the running accumulator the old pairwise
	// merge chain built is replaced by an exact nonzero count, so every
	// ChargeMem below is unchanged. With one entry per row of Q, a row
	// is nonempty in exactly one stage, so every entry of a stage
	// product is new to the count; otherwise stageArena.countStage
	// finds the new ones.
	prods, _ := ar.stageProds(stages)
	oneHot := atMostOnePerRow(q)
	base := 0
	if !oneHot {
		base = ar.beginCount(ps.N, q.Rows)
	}
	cum := 0
	for t := 0; t < stages; t++ {
		k := j*stages + t // block row of A handled this stage
		qik := qiks[t]
		r.ChargeMem(int64(q.NNZ()) * 8) // block slicing pass
		ownerLocal := k                 // colComm members sorted by grid row

		var blockK *sparse.CSR
		if ps.SparsityAware {
			// Each member tells the owner which rows of A_k its local
			// multiply will read (NnzCols of Q_ik), and receives only
			// those rows.
			need := ar.NonzeroCols(qik)
			lists := cluster.Gather(colComm, r, ownerLocal, need, 8*len(need))
			var parts []*rowPayload
			if lists != nil { // this rank owns A_k
				parts = ar.extractParts(ps.ALocal, lists)
				var extracted int64
				for _, p := range parts {
					extracted += int64(p.rows.NNZ())
				}
				r.ChargeSparse(extracted)
			}
			part := cluster.Scatter(colComm, r, ownerLocal, parts, payloadBytes)
			blockK = assembleBlockInto(&ar.asm, hi[t]-lo[t], need, part.rows)
		} else {
			// Sparsity-oblivious: broadcast the whole block row.
			var block *sparse.CSR
			if g.RowIndex(r.ID) == k {
				block = ps.ALocal
			}
			blockK = cluster.Broadcast(colComm, r, ownerLocal, block, blockBytes(block))
		}

		prod, flops := ar.SpGEMM(&prods[t], qik, blockK)
		r.ChargeSparse(flops)
		if oneHot {
			cum += prod.NNZ()
		} else {
			cum += ar.countStage(prod, base)
		}
		r.ChargeMem(int64(cum) * 16)
		r.ChargeKernels(2)
	}

	// Partial sums combine across the process row (Algorithm 2 line
	// 14), folded once per collective into the process row's one total;
	// the fold completing before any member leaves the collective is
	// what lets the next call reuse the stage products and rewrite the
	// total. The
	// contribution bytes are this rank's partial sum in CSR form: cum
	// nonzeros over q.Rows rows, sized like the old accumulator.
	partialBytes := 8*(q.Rows+1) + 16*cum
	sum := cluster.AllReduceGenericInto(rowComm, r, ar, partialBytes, ar, foldStages)
	r.ChargeMem(int64(sum.total.NNZ()) * 16 * int64(rowComm.Size()))
	return sum.total
}

// atMostOnePerRow reports whether no row of q holds more than one entry.
func atMostOnePerRow(q *sparse.CSR) bool {
	for i := 0; i < q.Rows; i++ {
		if q.RowNNZ(i) > 1 {
			return false
		}
	}
	return true
}

// blockBytes sizes an optional block for broadcast accounting.
func blockBytes(b *sparse.CSR) int {
	if b == nil {
		return 0
	}
	return b.Bytes()
}

// LocalBatches splits the global batch list across process rows: each
// process row owns a contiguous share, replicated on its c members
// (the 1-D block row distribution of Q).
func LocalBatches(g *cluster.Grid, rank int, batches [][]int) [][]int {
	lo, hi := graph.BlockRowRange(len(batches), g.Rows, g.RowIndex(rank))
	return batches[lo:hi]
}

// SamplePartitioned runs bulk sampling of s over this rank's local
// batches with the Graph Partitioned algorithm, drawing sizes[l] per
// row of Q at layer l and charging the probability/sampling/extraction
// phases on the rank's clock. The 1.5D SpGEMM stands in for P = Q·A, so
// of the sampler only BuildQ and LayerWise are called, then either the
// node-wise completion (the sampler's FinishStep method, see
// nodewiseFinisher) or Norm inside the layer-wise one below.
func SamplePartitioned(r *cluster.Rank, ps *Partitioned, s core.Sampler, batches [][]int, sizes []int, seed int64) *core.BulkSample {
	if s.LayerWise() {
		return layerwisePartitioned(r, ps, s, batches, sizes, seed)
	}
	out := &core.BulkSample{Batches: batches}
	cur := core.NewFrontier(batches)
	for l, fan := range sizes {
		layerSeed := seed + int64(l)*1e9

		r.SetPhase(PhaseProbability)
		q := s.BuildQ(cur, ps.N)
		r.ChargeKernels(1)
		p := ps.SpGEMM15D(r, q)

		r.SetPhase(PhaseSampling)
		ls, cost := s.(nodewiseFinisher).FinishStep(p, cur, fan, layerSeed)
		r.ChargeSparse(cost.SampleOps)
		r.ChargeKernels(2)
		r.SetPhase(PhaseExtraction)
		r.ChargeSparse(cost.ExtractOps)
		r.ChargeKernels(1)

		out.Layers = append(out.Layers, ls)
		out.Cost.Add(cost)
		cur = ls.Cols
	}
	return out
}

// nodewiseFinisher is the completion a node-wise sampler provides
// besides core.Sampler's methods: NORM, SAMPLE and EXTRACT over P that
// only read it (core.SAGE.FinishStep: NORM fused into ITS's prefix sum),
// so every member of a process row samples SpGEMM15D's one shared total.
type nodewiseFinisher interface {
	FinishStep(p *sparse.CSR, cur *core.Frontier, s int, seed int64) (*core.LayerSample, core.Cost)
}

// SampleSAGEPartitioned is SamplePartitioned for GraphSAGE: the name
// benchmark/walk.go calls. It goes with ROADMAP item 1a.
func SampleSAGEPartitioned(r *cluster.Rank, ps *Partitioned, batches [][]int, fanouts []int, seed int64) *core.BulkSample {
	return SamplePartitioned(r, ps, core.SAGE{}, batches, fanouts, seed)
}

// layerwisePartitioned is the Graph Partitioned driver for layer-wise
// samplers. Row extraction (Q_R·A) reuses the 1.5D SpGEMM; column
// extraction is split across the process row and reassembled with an
// all-gather, as described in Section 5.2.3.
func layerwisePartitioned(r *cluster.Rank, ps *Partitioned, s core.Sampler, batches [][]int, widths []int, seed int64) *core.BulkSample {
	out := &core.BulkSample{Batches: batches}
	cur := core.NewFrontier(batches)
	g := ps.Grid
	myCol := g.ColIndex(r.ID)
	rowComm := g.RowComm(r.ID).ForStream(r)

	for l, width := range widths {
		layerSeed := seed + int64(l)*1e9

		// Probabilities: P = Q·A with the sampler's normalization.
		r.SetPhase(PhaseProbability)
		q := s.BuildQ(cur, ps.N)
		r.ChargeKernels(1)
		// Norm rewrites its operand, and the product is the process
		// row's shared total: normalize this rank's own copy.
		p := sparse.CopyCSRInto(&ps.arena(r.ID).normed, ps.SpGEMM15D(r, q))
		s.Norm(p)
		r.ChargeMem(int64(p.NNZ()) * 16)

		// Sampling: row-wise, local on every replica.
		r.SetPhase(PhaseSampling)
		sampled, cost := core.SampleLayerwise(p, width, layerSeed)
		r.ChargeSparse(cost.SampleOps)
		r.ChargeKernels(1)

		// Extraction: row extraction is a second 1.5D SpGEMM with the
		// one-nonzero-per-row Q_R; column extraction is split across
		// the process row by batch and reassembled.
		r.SetPhase(PhaseExtraction)
		qr := (core.SAGE{}).BuildQ(cur, ps.N) // Q_R: one nonzero per frontier vertex
		ar := ps.SpGEMM15D(r, qr)

		k := cur.K()
		perBatch := make([]*core.LayerSample, k)
		var myParts []*core.LayerSample
		var extractOps int64
		for b := 0; b < k; b++ {
			if b%g.C != myCol {
				myParts = append(myParts, nil)
				continue
			}
			bf := core.NewFrontier([][]int{append([]int(nil), cur.Batch(b)...)})
			arSlice := sparse.SliceRows(ar, cur.BatchPtr[b], cur.BatchPtr[b+1])
			lsb, c := core.ExtractLayerwise(arSlice, bf, [][]int{sampled[b]})
			extractOps += c.ExtractOps
			myParts = append(myParts, lsb)
		}
		r.ChargeSparse(extractOps)
		r.ChargeKernels(1)

		partBytes := 0
		for _, pb := range myParts {
			if pb != nil {
				partBytes += pb.Adj.Bytes() + 8*pb.Cols.Len()
			}
		}
		gathered := cluster.AllGather(rowComm, r, myParts, partBytes)
		for col, parts := range gathered {
			for b := 0; b < k; b++ {
				if b%g.C == col {
					perBatch[b] = parts[b]
				}
			}
		}

		ls := assembleLayer(perBatch, cur)
		out.Layers = append(out.Layers, ls)
		out.Cost.Add(cost)
		cur = ls.Cols
	}
	return out
}

// assembleLayer merges per-batch layer samples (each a 1-batch
// LayerSample) into one bulk LayerSample: adjacencies block-diagonal,
// frontiers concatenated.
func assembleLayer(perBatch []*core.LayerSample, cur *core.Frontier) *core.LayerSample {
	adjs := make([]*sparse.CSR, len(perBatch))
	next := &core.Frontier{BatchPtr: make([]int, len(perBatch)+1)}
	for b, pb := range perBatch {
		if pb == nil {
			panic(fmt.Sprintf("distsample: batch %d missing after all-gather", b))
		}
		adjs[b] = pb.Adj
		next.Vertices = append(next.Vertices, pb.Cols.Vertices...)
		next.BatchPtr[b+1] = len(next.Vertices)
	}
	return &core.LayerSample{Adj: sparse.BlockDiag(adjs...), Rows: cur, Cols: next}
}
