package sparse

import (
	"fmt"

	"repro/internal/dense"
)

// SpMMInto computes C = A * B where A is sparse (m x k) and B is a
// dense row-major matrix (k x n given as a flat slice), overwriting a
// caller-owned dense row-major c of m x n values. The returned flop
// count is the number of multiply-add pairs.
//
// This is the neighborhood-aggregation kernel of forward propagation
// (Section 6.2): sampled adjacency times sampled feature matrix.
func SpMMInto(c []float64, a *CSR, b []float64, bCols int) (flops int64) {
	if len(b) != a.Cols*bCols {
		panic(fmt.Sprintf("sparse: SpMM dense operand has %d values, want %d (%dx%d)",
			len(b), a.Cols*bCols, a.Cols, bCols))
	}
	if len(c) != a.Rows*bCols {
		panic(fmt.Sprintf("sparse: SpMM destination has %d values, want %d (%dx%d)",
			len(c), a.Rows*bCols, a.Rows, bCols))
	}
	flops = int64(a.NNZ()) * int64(bCols)
	if dense.Serial(a.Rows, flops) {
		spmmRows(c, a, b, bCols, 0, a.Rows)
	} else {
		dense.ParallelRows(a.Rows, func(lo, hi int) { spmmRows(c, a, b, bCols, lo, hi) })
	}
	return flops
}

func spmmRows(c []float64, a *CSR, b []float64, bCols, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst := c[i*bCols : (i+1)*bCols]
		clear(dst)
		cols, vals := a.Row(i)
		for k, col := range cols {
			dense.Axpy(dst, vals[k], b[col*bCols:(col+1)*bCols])
		}
	}
}

// SpMMTInto computes C = A^T * B where A is sparse (m x k) and B is
// dense (m x n), overwriting a caller-owned dense k x n c. Used in
// backpropagation to push gradients from a layer's output rows back to
// its input rows. Serial over rows of A: they scatter into shared rows
// of c.
func SpMMTInto(c []float64, a *CSR, b []float64, bCols int) (flops int64) {
	if len(b) != a.Rows*bCols {
		panic(fmt.Sprintf("sparse: SpMMT dense operand has %d values, want %d (%dx%d)",
			len(b), a.Rows*bCols, a.Rows, bCols))
	}
	if len(c) != a.Cols*bCols {
		panic(fmt.Sprintf("sparse: SpMMT destination has %d values, want %d (%dx%d)",
			len(c), a.Cols*bCols, a.Cols, bCols))
	}
	clear(c)
	for i := 0; i < a.Rows; i++ {
		src := b[i*bCols : (i+1)*bCols]
		cols, vals := a.Row(i)
		for k, col := range cols {
			dense.Axpy(c[col*bCols:(col+1)*bCols], vals[k], src)
		}
	}
	return int64(a.NNZ()) * int64(bCols)
}
