package graph

import (
	"math"
	"sync"

	"repro/internal/sparse"
)

// RowCDF is a graph's inverse-transform-sampling table: for every
// vertex v, the NORM + prefix sum of row v of A — the distribution
// GraphSAGE samples v's neighbours from (Algorithm 1 with a one-hot
// Q row). It is a pure function of the adjacency matrix, n + nnz
// floats, built the first time a sampler over the whole matrix asks for
// it (Of) and read-only from then on, so every rank, epoch and bulk
// call shares it and a run that only ever holds blocks of A never pays
// for it.
type RowCDF struct {
	adj   *sparse.CSR
	build sync.Once
	inv   []float64 // per row: the scale NormPrefix applied (NaN: no distribution)
	cum   []float64 // per stored entry: inclusive running sum of the row's scaled weights
}

// RowCDF returns the graph's table. Adj must not be modified once the
// graph is wrapped: the table would go stale.
func (g *Graph) RowCDF() *RowCDF {
	g.cdfOnce.Do(func() { g.cdf = &RowCDF{adj: g.Adj} })
	return g.cdf
}

// Of reports whether the table is a's, building it on the first call
// that says yes. A nil table belongs to no matrix.
func (t *RowCDF) Of(a *sparse.CSR) bool {
	if t == nil || t.adj != a {
		return false
	}
	t.build.Do(func() {
		t.inv, t.cum = make([]float64, a.Rows), make([]float64, len(a.Val))
		for v := range t.inv {
			lo, hi := a.RowPtr[v], a.RowPtr[v+1]
			t.inv[v] = NormPrefix(t.cum[lo:hi], a.Val[lo:hi])
		}
	})
	return true
}

// Row returns row v's scale and running sums, as NormPrefix computes
// them (aliased; read-only). Of must have said yes first.
func (t *RowCDF) Row(v int) (inv float64, cum []float64) {
	return t.inv[v], t.cum[t.adj.RowPtr[v]:t.adj.RowPtr[v+1]]
}

// NormPrefix is NORM followed by ITS's prefix sum over one row of
// weights: it writes cum[k] = Σ_{j≤k} w[j]·inv, where inv = 1/Σw (1
// when the row sums to zero, which NORM leaves unscaled), and returns
// inv. Entry k's sampling weight is w[k]·inv. Operands and order are
// those of sparse.NormalizeRows followed by core's prefix loop, so the
// sums are bit-identical to the matrix path's. A negative or NaN
// scaled weight leaves no distribution to sample: the result is NaN
// and cum is unspecified.
func NormPrefix(cum, w []float64) (inv float64) {
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	inv = 1.0
	if sum != 0 {
		inv = 1 / sum
	}
	acc := 0.0
	for k, x := range w {
		// The conversion rounds the product before the add (no fused
		// multiply-add), as storing the normalized value does.
		x = float64(x * inv)
		if x < 0 || math.IsNaN(x) {
			return math.NaN()
		}
		acc += x
		cum[k] = acc
	}
	return inv
}
