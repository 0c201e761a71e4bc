package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// SAGE is the node-wise GraphSAGE sampler (Section 4.1): each frontier
// vertex samples s of its neighbors uniformly at random.
type SAGE struct {
	// CDF is the adjacency matrix's row-CDF table (graph.Graph.RowCDF).
	// It only saves host time: when nil, or built from another matrix
	// than the one Step is given, Step computes each sampled row's
	// prefix sum into scratch with the routine that builds the table,
	// and returns the same sample and the same Cost.
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
	ls, cost, read := sg.sampleRows(a, cur.Vertices, cur, s, seed)
	cost.Kernels += 2            // Q construction, SpGEMM
	cost.ProbFlops = int64(read) // one multiply-add per entry of the gathered rows
	return ls, cost
}

// sampleRows is GraphSAGE's NORM, SAMPLE and EXTRACT over the rows of P,
// read from m: frontier row i is row rowOf[i] of m (Step passes A and the
// frontier's vertices), or row i when rowOf is nil (FinishStep passes P).
// m is only read. NORM is fused into ITS's prefix sum — from sg.CDF when
// it is m's table, else graph.NormPrefix into scratch — so a row's
// weights are scaled only where they are summed. read is the number of
// entries in the rows read: P's nonzeros.
func (sg SAGE) sampleRows(m *sparse.CSR, rowOf []int, cur *Frontier, s int, seed int64) (ls *LayerSample, cost Cost, read int) {
	// NORM, SAMPLE, EXTRACT.
	cost = Cost{Kernels: 3}
	s = max(s, 0)
	rows := cur.Len()
	row := func(i int) int {
		if rowOf == nil {
			return i
		}
		return rowOf[i]
	}
	maxPicks := 0
	for i := 0; i < rows; i++ {
		deg := m.RowNNZ(row(i))
		read += deg
		maxPicks += min(deg, s)
	}
	table := sg.CDF.Of(m)

	// SAMPLE: picks[rowPtr[i]:rowPtr[i+1]] are the sampled global vertex
	// ids of frontier row i, in row-sorted order.
	rowPtr := make([]int, rows+1)
	picks := make([]int, 0, maxPicks)
	var rs RowSampler
	for i := 0; i < rows; i++ {
		v := row(i)
		cols, w := m.Row(v)
		switch deg := len(cols); {
		case deg <= s:
			picks = append(picks, cols...)
			cost.SampleOps += int64(deg)
		case s > 0:
			cost.SampleOps += int64(deg) // the prefix sum
			var inv float64
			var cum []float64
			if table {
				inv, cum = sg.CDF.Row(v)
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
			cost.SampleOps += rs.sc.draw(cum, w, inv, s, &rs.rng)
			for _, t := range rs.sc.chosen {
				picks = append(picks, cols[t])
			}
		}
		rowPtr[i+1] = len(picks)
	}

	ls = extractNodewise(cur, picks, rowPtr)
	cost.ExtractOps += int64(len(picks))
	return ls, cost, read
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
// un-normalized rows with NORM fused into the prefix sum — Step's loop,
// reading P's rows in order — and returns the same sample and Cost.
// Because P is only read, the 1.5D driver runs it on the process row's
// one shared product, once per row inside the row fold, and every
// member of the row receives the one sample it returns (read-only:
// members share the LayerSample); benchmark/walk.go times it too.
func (sg SAGE) FinishStep(p *sparse.CSR, cur *Frontier, s int, seed int64) (*LayerSample, Cost) {
	ls, cost, _ := sg.sampleRows(p, nil, cur, s, seed)
	return ls, cost
}
