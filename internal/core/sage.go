package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// SAGE is the node-wise GraphSAGE sampler (Section 4.1): each frontier
// vertex samples s of its neighbors uniformly at random.
type SAGE struct {
	// CDF is the adjacency matrix's row-CDF table (graph.Graph.RowCDF).
	// It only saves host time. Step over A, and the 1.5D row fold over
	// the blocks of A its stages received (a RowReader that names A),
	// look each sampled row's prefix sums up in it. When it is nil, or
	// built from another matrix than the one whose rows are read, the
	// draw computes each sampled row's prefix sum into scratch with the
	// routine that builds the table, and returns the same sample and the
	// same Cost.
	CDF *graph.RowCDF
}

// Name implements Sampler.
func (SAGE) Name() string { return "GraphSAGE" }

// LayerWise implements Sampler: GraphSAGE is node-wise.
func (SAGE) LayerWise() bool { return false }

// BuildQ constructs the stacked sampler matrix Q^l for node-wise
// sampling: one row per frontier vertex with a single unit entry in
// that vertex's column (Section 4.1.1).
func (SAGE) BuildQ(cur *Frontier, n int) *sparse.CSR {
	m := cur.Len()
	q := &sparse.CSR{
		Rows:   m,
		Cols:   n,
		RowPtr: make([]int, m+1),
		ColIdx: make([]int, m),
		Val:    make([]float64, m),
	}
	for i, v := range cur.Vertices {
		q.RowPtr[i+1] = i + 1
		q.ColIdx[i] = v
		q.Val[i] = 1
	}
	return q
}

// Norm row-normalizes P so each row is the uniform distribution over
// the vertex's neighbors (each nonzero becomes 1/|N(v)|).
func (SAGE) Norm(p *sparse.CSR) { p.NormalizeRows() }

// Step performs one bulk GraphSAGE layer. The device is charged for
// Algorithm 1 as written — Q construction, P ← Q·A, NORM, ITS sampling
// of s neighbors per row, extraction by column compaction (Sections
// 4.1.1–4.1.4) — but the host materializes neither Q nor P: Q^l has one
// unit entry per row, so row i of P is row cur.Vertices[i] of A, read in
// place, and its NORM + prefix sum comes from sg.CDF. The result equals
// BuildQ → sparse.SpGEMM → FinishStep field for field, Cost included.
func (sg SAGE) Step(a *sparse.CSR, cur *Frontier, s int, seed int64) (*LayerSample, Cost) {
	ls, cost, read := sg.sampleAll(a, cur.Vertices, cur, s, seed)
	cost.Kernels += 2            // Q construction, SpGEMM
	cost.ProbFlops = int64(read) // one multiply-add per entry of the gathered rows
	return ls, cost
}

// RowPicks is one row range's share of a node-wise draw (FinishRows):
// the vertices sampled in its rows, in row order, where each row's picks
// end, and the ITS operations spent. It is scratch: reused from call to
// call, it keeps its buffers and RowSampler at their grown sizes.
type RowPicks struct {
	rs    RowSampler
	picks []int
	ends  []int // row lo+j's picks end at ends[j] in picks
	ops   int64
}

// RowReader is sparse.RowReader: the node-wise draw and the layer-wise
// extraction read A or a product through it, so a driver holding A in
// pieces — the 1D baseline and the 1.5D row fold, in the blocks of A
// their stages received — reads the rows of a product with a
// one-entry-per-row Q from A's without assembling it. Such a reader
// names the matrix it holds in pieces with a Matrix method (see
// matrixOf), which is what lets the draw look its rows up in SAGE.CDF.
type RowReader = sparse.RowReader

// rowAt is the row of a reader that frontier row i reads: rowOf[i], or
// i itself when rowOf is nil.
func rowAt(rowOf []int, i int) int {
	if rowOf == nil {
		return i
	}
	return rowOf[i]
}

// ErrTableRow is the draw's diagnostic when a row it reads is not as
// long as the row SAGE.CDF holds for it: the reader named a matrix it
// does not hold, or read another row than the one looked up.
const ErrTableRow = "core: a row read differs in length from its RowCDF row"

// matrixOf names the matrix whose rows m reads, by that matrix's row
// index: m itself, or the one a reader holding it in pieces names; nil
// when m names none.
func matrixOf(m RowReader) *sparse.CSR {
	switch m := m.(type) {
	case *sparse.CSR:
		return m
	case interface{ Matrix() *sparse.CSR }:
		return m.Matrix()
	}
	return nil
}

// sampleAll is sampleRows over every frontier row, completed into the
// layer: Step's and FinishStep's one serial pass.
func (sg SAGE) sampleAll(m *sparse.CSR, rowOf []int, cur *Frontier, s int, seed int64) (*LayerSample, Cost, int) {
	rows := cur.Len()
	rowPtr := make([]int, rows+1)
	rp := RowPicks{ends: rowPtr[1:]}
	read := sg.sampleRows(m, rowOf, 0, rows, s, seed, &rp)
	ls, cost := nodewiseLayer(cur, rp.picks, rowPtr, rp.ops)
	return ls, cost, read
}

// sampleRows is GraphSAGE's NORM and SAMPLE over frontier rows [lo, hi)
// of P, read from m: frontier row i is row rowOf[i] of m (Step passes A
// and the frontier's vertices, the 1D and 1.5D drivers a reader of A's
// blocks and Q's columns), or row i when rowOf is nil (FinishStep
// passes P). m is only read. NORM is fused into ITS's
// prefix sum — looked up in sg.CDF by row of m when m names the table's
// matrix (matrixOf), else graph.NormPrefix into scratch — so a row's
// weights are scaled only where they are summed. A looked-up row must be
// as long as the row read, or the draw panics naming ErrTableRow. Row i's picks go
// to rp.picks, and their end to rp.ends[i-lo], which must hold hi-lo
// entries. Every row reseeds its draw (rowSeed(seed, i)), so what a row
// picks depends on that row alone: ranges drawn apart and joined in row
// order (JoinRows) are one draw over all of them. read is the number of
// entries in the rows read: P's nonzeros.
func (sg SAGE) sampleRows(m RowReader, rowOf []int, lo, hi, s int, seed int64, rp *RowPicks) (read int) {
	s = max(s, 0)
	maxPicks := 0
	for i := lo; i < hi; i++ {
		deg := m.RowNNZ(rowAt(rowOf, i))
		read += deg
		maxPicks += min(deg, s)
	}
	table := sg.CDF.Of(matrixOf(m))

	// SAMPLE: the picks of row i are the sampled global vertex ids, in
	// row-sorted order.
	if cap(rp.picks) < maxPicks {
		rp.picks = make([]int, 0, maxPicks)
	}
	picks, ops, rs := rp.picks[:0], int64(0), &rp.rs
	for i := lo; i < hi; i++ {
		v := rowAt(rowOf, i)
		cols, w := m.Row(v)
		switch deg := len(cols); {
		case deg <= s:
			picks = append(picks, cols...)
			ops += int64(deg)
		case s > 0:
			ops += int64(deg) // the prefix sum
			var inv float64
			var cum []float64
			if table {
				if inv, cum = sg.CDF.Row(v); len(cum) != deg {
					panic(fmt.Sprintf("%s: row %d holds %d entries, the table %d", ErrTableRow, v, deg, len(cum)))
				}
			} else {
				cum = rs.sc.prefixBuf(deg)
				inv = graph.NormPrefix(cum, w)
			}
			if math.IsNaN(inv) {
				panic("core: negative or NaN sampling weight")
			}
			if cum[deg-1] == 0 {
				break
			}
			rs.rng.Reseed(rowSeed(seed, i))
			ops += rs.sc.draw(cum, w, inv, s, &rs.rng)
			for _, t := range rs.sc.chosen {
				picks = append(picks, cols[t])
			}
		}
		rp.ends[i-lo] = len(picks)
	}
	rp.picks, rp.ops = picks, ops
	return read
}

// FinishRows is FinishStep's draw over frontier rows [lo, hi) of P
// alone, into rp: row i of P is row rowOf[i] of m, or row i of m when
// rowOf is nil (m is P). JoinRows completes the layer from the draws of
// consecutive ranges: the 1.5D row fold draws row stripes of the
// process row's P at once, each into its own RowPicks, and the 1D
// baseline all of its rows as one range, both reading P's rows where
// their stages received them — rows of A, by vertex, whose prefix sums
// come from sg.CDF when the reader names A. A row's draw reads its
// weights only through graph.NormPrefix (its own or the table's) and
// ITS's zero test, so a −0 weight of A draws as the +0 that P = Q·A
// stores in its place.
func (sg SAGE) FinishRows(m RowReader, rowOf []int, lo, hi, s int, seed int64, rp *RowPicks) {
	if cap(rp.ends) < hi-lo {
		rp.ends = make([]int, hi-lo)
	}
	rp.ends = rp.ends[:hi-lo]
	sg.sampleRows(m, rowOf, lo, hi, s, seed, rp)
}

// JoinRows completes a node-wise layer over cur from stripes, the
// FinishRows draws of consecutive row ranges that cover it in order. It
// appends every stripe's picks to the first's, in row order, offsets
// each row's end into the layer's row pointers, and returns what
// FinishStep returns over the whole range, Cost included.
func JoinRows(cur *Frontier, stripes []RowPicks) (*LayerSample, Cost) {
	rowPtr := make([]int, cur.Len()+1)
	first := &stripes[0]
	var ops int64
	row := 0
	for k := range stripes {
		st := &stripes[k]
		base := 0
		if k > 0 {
			base = len(first.picks)
			first.picks = append(first.picks, st.picks...)
		}
		for _, end := range st.ends {
			row++
			rowPtr[row] = base + end
		}
		ops += st.ops
	}
	if row != cur.Len() {
		panic(fmt.Sprintf("core: row stripes cover %d of %d rows", row, cur.Len()))
	}
	return nodewiseLayer(cur, first.picks, rowPtr, ops)
}

// nodewiseLayer is the node-wise EXTRACT of drawn picks
// (extractNodewise) and the draw's Cost: NORM, SAMPLE and EXTRACT, ops
// ITS operations, one extraction operation per pick.
func nodewiseLayer(cur *Frontier, picks, rowPtr []int, ops int64) (*LayerSample, Cost) {
	cost := Cost{Kernels: 3, SampleOps: ops, ExtractOps: int64(len(picks))}
	return extractNodewise(cur, picks, rowPtr), cost
}

// extractNodewise is the node-wise EXTRACT: one row per frontier vertex,
// columns "self frontier ++ sampled vertices" per batch (the compaction
// of Section 4.1.3 is implicit: only sampled vertices get columns).
// picks[rowPtr[i]:rowPtr[i+1]] are row i's sampled vertices. Batch b's
// picks follow its self prefix in pick order, so pick t of a batch whose
// rows end at hi is column hi+t.
func extractNodewise(cur *Frontier, picks, rowPtr []int) *LayerSample {
	rows, k := cur.Len(), cur.K()
	next := &Frontier{Vertices: make([]int, 0, rows+len(picks)), BatchPtr: make([]int, k+1)}
	adj := &sparse.CSR{Rows: rows, Cols: rows + len(picks), RowPtr: rowPtr,
		ColIdx: make([]int, len(picks)), Val: make([]float64, len(picks))}
	for b := 0; b < k; b++ {
		lo, hi := cur.BatchPtr[b], cur.BatchPtr[b+1]
		next.Vertices = append(next.Vertices, cur.Vertices[lo:hi]...)
		next.Vertices = append(next.Vertices, picks[rowPtr[lo]:rowPtr[hi]]...)
		next.BatchPtr[b+1] = len(next.Vertices)
		for t := rowPtr[lo]; t < rowPtr[hi]; t++ {
			adj.ColIdx[t] = hi + t
			adj.Val[t] = 1
		}
	}
	return &LayerSample{Adj: adj, Rows: cur, Cols: next}
}

// FinishStep is FinishStep(sg, …) without writing P: it samples the
// un-normalized rows of a formed P with NORM fused into the prefix sum —
// Step's loop, reading P's rows in order — and returns the same sample
// and Cost. No driver forms GraphSAGE's P: the 1D and 1.5D drivers draw
// its rows where their stages received them (FinishRows and JoinRows,
// which give FinishStep's result). benchmark/walk.go times it after a
// traced SpGEMM, and the tests draw the serial-product reference with
// it.
func (sg SAGE) FinishStep(p *sparse.CSR, cur *Frontier, s int, seed int64) (*LayerSample, Cost) {
	ls, cost, _ := sg.sampleAll(p, nil, cur, s, seed)
	return ls, cost
}
