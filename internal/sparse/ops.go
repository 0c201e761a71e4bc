package sparse

import "fmt"

// ExtractRows returns the submatrix formed by the given rows of A, in
// order. Row indices may repeat. This is the row-extraction SpGEMM
// Q_R * A of Section 4.2.3 realized directly: Q_R has one nonzero per
// row, so the product is a gather.
func ExtractRows(a *CSR, rows []int) *CSR {
	out := &CSR{Rows: len(rows), Cols: a.Cols, RowPtr: make([]int, len(rows)+1)}
	nnz := 0
	for _, r := range rows {
		nnz += a.RowNNZ(r)
	}
	out.ColIdx = make([]int, 0, nnz)
	out.Val = make([]float64, 0, nnz)
	for i, r := range rows {
		if r < 0 || r >= a.Rows {
			panic(fmt.Sprintf("sparse: ExtractRows row %d outside %d rows", r, a.Rows))
		}
		cols, vals := a.Row(r)
		out.ColIdx = append(out.ColIdx, cols...)
		out.Val = append(out.Val, vals...)
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

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
