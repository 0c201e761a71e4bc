package sparse

import "fmt"

// SliceRows returns rows [lo, hi) of A as a view: fresh row pointers
// over A's ColIdx and Val, capped so that an append cannot reach A.
// Writing an entry of the view writes A's; a caller that rewrites what
// it slices copies it first (core.BulkSample.ExtractBatch).
func SliceRows(a *CSR, lo, hi int) *CSR {
	if lo < 0 || hi > a.Rows || lo > hi {
		panic(fmt.Sprintf("sparse: SliceRows [%d,%d) outside %d rows", lo, hi, a.Rows))
	}
	out := &CSR{Rows: hi - lo, Cols: a.Cols, RowPtr: make([]int, hi-lo+1)}
	base, end := a.RowPtr[lo], a.RowPtr[hi]
	for i := lo; i <= hi; i++ {
		out.RowPtr[i-lo] = a.RowPtr[i] - base
	}
	out.ColIdx, out.Val = a.ColIdx[base:end:end], a.Val[base:end:end]
	return out
}
