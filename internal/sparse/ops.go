package sparse

import "fmt"

// SliceRows returns the submatrix of rows [lo, hi) of A, sharing no
// storage with A.
func SliceRows(a *CSR, lo, hi int) *CSR {
	if lo < 0 || hi > a.Rows || lo > hi {
		panic(fmt.Sprintf("sparse: SliceRows [%d,%d) outside %d rows", lo, hi, a.Rows))
	}
	out := &CSR{Rows: hi - lo, Cols: a.Cols, RowPtr: make([]int, hi-lo+1)}
	base := a.RowPtr[lo]
	for i := lo; i <= hi; i++ {
		out.RowPtr[i-lo] = a.RowPtr[i] - base
	}
	out.ColIdx = append([]int(nil), a.ColIdx[base:a.RowPtr[hi]]...)
	out.Val = append([]float64(nil), a.Val[base:a.RowPtr[hi]]...)
	return out
}
