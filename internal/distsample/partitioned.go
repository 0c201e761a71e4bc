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
// driver, and the 1D baseline it is compared against (OneD), run the
// staged collectives with their real payloads, but no stage multiplies:
// the stages keep the rows of A they received, and P is read from them
// (stageRows) — in place for a Q with one unit entry per row
// (GraphSAGE's, and a layer-wise extraction's Q_R), summed once per
// process row for LADIES's and FastGCN's P. The partitioned driver's c
// replicas share one read-only layer per process row (the row fold
// completes each layer once, for all c members, for both sampler
// families — layer-wise extraction included, whose all-gather across
// the row is charged but carries no value), and GraphSAGE's NORM +
// prefix sums are looked up in the graph's RowCDF table when the
// sampler holds it.
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
	// a is the whole matrix the set sliced: what the in-place draw's
	// reader names, so the draw finds A's rows in A's RowCDF table.
	a *sparse.CSR
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
// state (P, the draw, the stripes), owners hold response payloads — so
// a recycled set at the same grid shape regrows nothing. Give the set
// back with ReleasePartitionedSet once no rank can still read it.
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
			a:             a,
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
// member may read another's arena (a payload, P's row pointers) until it
// leaves the collective, and a failed run leaves arenas mid-call. The
// set must not be used afterwards.
func ReleasePartitionedSet(set []*Partitioned) {
	arenas := set[0].arenas
	for _, a := range arenas {
		if a != nil {
			// ptr and drawn point into another arena of the set, the
			// draw record and finish step hold the last layer, sampled
			// sets and frontier, and q, a, blocks, rowBlocks and view
			// the last Q, the set's A and its blocks; nextTag keeps
			// counting, because stamp still holds the old tags.
			a.ptr, a.drawn, a.draw, a.fin = nil, nil, rowDraw{}, finishStep{}
			a.q, a.a, a.view = nil, nil, stageRows{}
			clear(a.blocks)
			clear(a.rowBlocks)
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

// spgemm15D computes P = Q·A for this rank's block row of Q, running
// the staged block algorithm of Algorithm 2 on the process grid, and
// completes the layer from P with fin (see finishStep). Q's columns
// span the full vertex range [0, N). It returns P's row pointers — one
// P per process row, which its c members share — and the row's draw
// from P (see foldStages). Both are read-only: they live in the process
// row's stage arenas and are valid until the row's next spgemm15D call
// on this set (or the set's release), and Q must not be one of them.
// The collective schedules — the per-stage gathers/scatters and the row
// all-reduce — charge under the cost model's Collectives table
// (cluster.CollectiveAlgorithm), so algorithm comparisons reach the
// 1.5D sampling path without any plumbing here.
//
// What the device is charged is the matrix algorithm: every stage
// multiply, memory pass and collective payload below. The host
// multiplies no stage: each keeps the A_k block it received (blocks;
// an aware stage's is the payload itself, given row pointers,
// assembleBlockInto) and charges the product Q_ik·A_k it stands for —
// the flop bound sparse.SpGEMM returns (gatherFlops) and the running
// sum's nonzeros (countStage, or the flop bound when each row of Q has
// one entry). The row fold then reads A's rows from the process row's
// blocks (stageRows), once for its c members. A layer-wise sampler's P
// (LADIES's, FastGCN's) is summed from them as sparse.SpGEMM(Q, A) sums
// it, and normalized in place. Every other P has a Q with one unit
// entry per row (GraphSAGE's Q, any Q_R), so its row i is the row of A
// that Q selects and is read where the stages received it — a
// GraphSAGE draw takes its NORM + prefix sums from the sampler's table
// of A (core.SAGE.CDF) — and any other Q panics, naming errNotUnit.
// The charges do not depend on what the host runs, and the sample is
// the serial sampler's (TestDistributedMatchesSerialForEverySampler).
//
// Every member of the row must pass the same finish step.
func (ps *Partitioned) spgemm15D(r *cluster.Rank, q *sparse.CSR, fin finishStep) ([]int, *rowDraw) {
	unit := unitPerRow(q)
	if !unit && !fin.layerwiseP() {
		panic(errNotUnit)
	}
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
	ar.sizeStages(stages)

	// Each stage charges the running sum's nonzeros, which no stage
	// builds: with one entry per row of Q, a row of P is nonempty in
	// exactly one stage, so every entry of a stage's product is new to
	// the count; otherwise stageArena.countStage finds the new ones.
	base := 0
	if !unit {
		base = ar.beginCount(ps.N, q.Rows)
	}
	cum := 0
	for t := 0; t < stages; t++ {
		k := j*stages + t // block row of A handled this stage
		qik := qiks[t]
		r.Charge(cluster.Work{MemBytes: int64(q.NNZ()) * 8}) // block slicing pass
		ownerLocal := k                                      // colComm members sorted by grid row

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
				r.Charge(cluster.Work{SparseOps: extracted})
			}
			part := cluster.Scatter(colComm, r, ownerLocal, parts, payloadBytes)
			blockK = assembleBlockInto(&ar.asms[t], hi[t]-lo[t], need, part.rows)
		} else {
			// Sparsity-oblivious: broadcast the whole block row.
			var block *sparse.CSR
			if g.RowIndex(r.ID) == k {
				block = ps.ALocal
			}
			blockK = cluster.Broadcast(colComm, r, ownerLocal, block, blockBytes(block))
		}
		ar.blocks[t] = blockK

		flops := gatherFlops(qik, blockK)
		if unit {
			cum += int(flops)
		} else {
			cum += ar.countStage(qik, blockK, base)
		}
		r.Charge(cluster.Work{SparseOps: flops, MemBytes: int64(cum) * 16, Kernels: 2})
	}

	// Partial sums combine across the process row (Algorithm 2 line
	// 14): the fold reads P once for the process row, before any member
	// leaves the collective, which is what lets the next call rewrite
	// the blocks and P. The contribution bytes are this rank's partial
	// sum in CSR form: cum nonzeros over q.Rows rows, sized like the old
	// accumulator.
	partialBytes := 8*(q.Rows+1) + 16*cum
	ar.fin, ar.q, ar.a = fin, q, ps.a
	sum := cluster.AllReduceGenericInto(rowComm, r, ar, partialBytes, ar, foldStages)
	r.Charge(cluster.Work{MemBytes: int64(sum.ptr[len(sum.ptr)-1]) * 16 * int64(rowComm.Size())})
	return sum.ptr, sum.drawn
}

// errNotUnit is spgemm15D's diagnostic for a Q with other than one
// unit entry per row under a finish step that reads P in place — a
// node-wise draw, or a Q_R extraction: only a layer-wise sampler's P is
// summed.
const errNotUnit = "distsample: a P read in place needs a Q with one unit entry per row"

// unitPerRow reports whether every row of q holds one entry, of value 1
// (GraphSAGE's Q, Q_R): row i of Q·A is then the row of A that row i
// selects.
func unitPerRow(q *sparse.CSR) bool {
	for i := 0; i < q.Rows; i++ {
		if q.RowNNZ(i) != 1 || q.Val[q.RowPtr[i]] != 1 {
			return false
		}
	}
	return true
}

// gatherFlops is the flop bound of Q_k·A_k, the one sparse.SpGEMM
// returns: a multiply-add per entry of Q_k and entry of the row of ak
// it names, so the summed length of those rows. For a Q_k with one
// entry per row it is also the product's size.
func gatherFlops(qk, ak *sparse.CSR) int64 {
	var flops int64
	for _, c := range qk.ColIdx[:qk.NNZ()] {
		flops += int64(ak.RowNNZ(c))
	}
	return flops
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
// node-wise completion (the sampler's FinishRows method, over the fold's
// row stripes, see nodewiseFinisher) or Norm and the layer-wise
// extraction (extractLayerwise), all run by the row fold once per
// process row (finishStep). The c members of a process row hold the
// same batches, so they return the very same read-only LayerSamples.
// The sample's Cost stays zero (see core.BulkSample).
func SamplePartitioned(r *cluster.Rank, ps *Partitioned, s core.Sampler, batches [][]int, sizes []int, seed int64) *core.BulkSample {
	out := &core.BulkSample{Batches: batches}
	cur := core.NewFrontier(batches)
	for l, size := range sizes {
		fin := finishStep{s: s, cur: cur, size: size, seed: seed + int64(l)*1e9}

		r.SetPhase(PhaseProbability)
		q := s.BuildQ(cur, ps.N)
		r.Charge(cluster.Work{Kernels: 1})
		ptr, drawn := ps.spgemm15D(r, q, fin)
		if s.LayerWise() {
			r.Charge(cluster.Work{MemBytes: int64(ptr[len(ptr)-1]) * 16}) // the sampler's Norm over P
		}

		// The row's draw is charged to every member, as if each drew it.
		r.SetPhase(PhaseSampling)
		ls, cost := drawn.layer, drawn.cost
		if s.LayerWise() {
			r.Charge(cluster.Work{SparseOps: cost.SampleOps, Kernels: 1})
			r.SetPhase(PhaseExtraction)
			fin.sampled = drawn.sampled
			ls = ps.extractLayerwise(r, fin)
		} else {
			r.Charge(cluster.Work{SparseOps: cost.SampleOps, Kernels: 2})
			r.SetPhase(PhaseExtraction)
			r.Charge(cluster.Work{SparseOps: cost.ExtractOps, Kernels: 1})
		}

		out.Layers = append(out.Layers, ls)
		cur = ls.Cols
	}
	return out
}

// extractLayerwise is the layer-wise extraction of Section 5.2.3: row
// extraction is a second 1.5D SpGEMM with the one-unit-entry-per-row
// Q_R, whose row fold reads A_R = Q_R·A in place and column-extracts
// every batch onto its sampled set, once for the process row
// (fin.sampled). The device splits column extraction across the
// process row by batch and reassembles it with an all-gather, so each
// member is charged its share, the batches b with b%c equal to its
// column: their rows of A_R (read off P's row pointers), and their
// parts of the layer as all-gather bytes. The gathered value is never
// read: the shared layer already holds every batch, and the charge
// depends only on the bytes.
func (ps *Partitioned) extractLayerwise(r *cluster.Rank, fin finishStep) *core.LayerSample {
	g := ps.Grid
	ptr, drawn := ps.spgemm15D(r, (core.SAGE{}).BuildQ(fin.cur, ps.N), fin)
	ls, rows := drawn.layer, fin.cur.BatchPtr
	var ops int64
	bytes := 0
	for b := g.ColIndex(r.ID); b < fin.cur.K(); b += g.C {
		lo, hi := rows[b], rows[b+1]
		ops += int64(ptr[hi] - ptr[lo])
		nnz := ls.Adj.RowPtr[hi] - ls.Adj.RowPtr[lo]
		cols := ls.Cols.BatchPtr[b+1] - ls.Cols.BatchPtr[b]
		bytes += 8*(hi-lo+1) + 16*nnz + 8*cols
	}
	r.Charge(cluster.Work{SparseOps: ops, Kernels: 1})
	cluster.AllGather(g.RowComm(r.ID).ForStream(r), r, struct{}{}, bytes)
	return ls
}

// nodewiseFinisher is the completion a node-wise sampler provides
// besides core.Sampler's methods: NORM and SAMPLE over a range of P's
// rows that only read them (core.SAGE.FinishRows: NORM fused into ITS's
// prefix sum, or looked up in A's table), so the row fold's stripes draw
// P from A's rows where the stages received them, in place, and
// core.JoinRows extracts the layer.
type nodewiseFinisher interface {
	FinishRows(m core.RowReader, rowOf []int, lo, hi, s int, seed int64, rp *core.RowPicks)
}

// finishStep is one layer's completion of a process row's product P:
// the sampler with the frontier, per-row size (fan-out or layer width)
// and layer seed, and for a layer-wise sampler's second product (Q_R·A)
// the vertices its first drew per batch. Every member of the row passes
// its own, and they must agree.
type finishStep struct {
	s       core.Sampler
	cur     *core.Frontier
	size    int
	seed    int64
	sampled [][]int
}

// rowDraw is a process row's one sample of a layer, drawn by the row
// fold: the layer itself, except from a layer-wise sampler's P, where
// it is the vertices sampled per batch that the Q_R product's fold then
// extracts the layer onto. Its cost is the draw's, which every member
// charges as its own — but for that extraction, split across the row,
// whose share each member charges instead (extractLayerwise).
// Read-only for every member; each draw is freshly
// allocated, so a later draw never rewrites one a member still holds.
type rowDraw struct {
	layer   *core.LayerSample
	sampled [][]int
	cost    core.Cost
}

// errRowDisagree is the fold's diagnostic when the members of a process
// row pass different finish steps: they hold the same batches, so a
// difference is a driver bug, and one draw cannot serve them all.
const errRowDisagree = "distsample: process row members passed different finish steps"

// agree panics, naming errRowDisagree, unless every member's finish
// step (vals[m].fin) matches the first member's in seed, size and
// frontier length.
func agree(vals []*stageArena) {
	f0 := vals[0].fin
	for m, v := range vals[1:] {
		if f := v.fin; f.seed != f0.seed || f.size != f0.size || f.cur.Len() != f0.cur.Len() {
			panic(fmt.Sprintf("%s: member 0 %s, member %d %s", errRowDisagree, f0, m+1, f))
		}
	}
}

func (f finishStep) String() string {
	return fmt.Sprintf("%s seed %d size %d frontier %d", f.s.Name(), f.seed, f.size, f.cur.Len())
}

// nodewise reports whether the step is a node-wise sampler's draw,
// which the fold's row stripes run (drawStripes, nodewiseFinisher).
func (f finishStep) nodewise() bool {
	return f.sampled == nil && !f.s.LayerWise()
}

// layerwiseP reports whether the step is a layer-wise sampler's draw
// on P, which the fold sums from the blocks and Norm then rewrites.
func (f finishStep) layerwiseP() bool {
	return f.sampled == nil && f.s.LayerWise()
}

// drawLayerwise completes a layer-wise step, serially: its Norm
// (LADIES, FastGCN) sums columns over all rows. The extraction reads
// A_R = Q_R·A in place (view) onto f.sampled; the draw normalizes P,
// the sum in the process row's first arena (p), in place.
func (f finishStep) drawLayerwise(view *stageRows, p *sparse.CSR) rowDraw {
	if f.sampled != nil {
		ls, cost := core.ExtractLayerwise(view, view.of, f.cur, f.sampled)
		return rowDraw{layer: ls, cost: cost}
	}
	f.s.Norm(p)
	sampled, cost := core.SampleLayerwise(p, f.size, f.seed)
	return rowDraw{sampled: sampled, cost: cost}
}

// SampleSAGEPartitioned is SamplePartitioned for GraphSAGE: the name
// benchmark/walk.go calls. It goes with ROADMAP item 1a.
func SampleSAGEPartitioned(r *cluster.Rank, ps *Partitioned, batches [][]int, fanouts []int, seed int64) *core.BulkSample {
	return SamplePartitioned(r, ps, core.SAGE{}, batches, fanouts, seed)
}
