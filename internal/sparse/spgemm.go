package sparse

import "fmt"

// SpGEMM computes C = A * B for sparse A and B using Gustavson's
// row-wise algorithm with a sparse accumulator; a row of A with one
// entry is a scaled copy of a row of B and skips the accumulator (see
// productRow). The product is freshly allocated and owned by the
// caller. The returned flop count is the number of scalar multiply-add
// pairs the algorithm performs, which the cluster cost model uses to
// charge simulated device time.
func SpGEMM(a, b *CSR) (*CSR, int64) {
	var acc spa
	return spgemm(new(CSR), &acc, a, b)
}

// spgemm is the one SpGEMM body, shared by SpGEMM and Scratch.SpGEMM.
// A sizing pass bounds the output by the flop count (collisions only
// shrink it), so out's storage grows at most once; productRow then
// appends each row. acc is widened only when some row of A has several
// entries. The body is serial: dense.ParallelRows is the module's one
// kernel fan-out, and inside a rank body the other ranks already hold
// the cores.
func spgemm(out *CSR, acc *spa, a, b *CSR) (*CSR, int64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: SpGEMM dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	bound := 0
	for i := 0; i < a.Rows; i++ {
		acols, _ := a.Row(i)
		if len(acols) > 1 {
			acc.grow(b.Cols)
		}
		for _, arow := range acols {
			bound += b.RowNNZ(arow)
		}
	}
	out.Rows, out.Cols = a.Rows, b.Cols
	out.RowPtr = ensureInts(out.RowPtr, a.Rows+1)
	out.RowPtr[0] = 0
	cols := ensureInts(out.ColIdx, bound)[:0]
	vals := ensureFloats(out.Val, bound)[:0]
	for i := 0; i < a.Rows; i++ {
		cols, vals = acc.productRow(cols, vals, a, b, i)
		out.RowPtr[i+1] = len(cols)
	}
	out.ColIdx, out.Val = cols, vals
	return out, int64(bound)
}

// spa is a sparse accumulator: a dense value array plus an occupancy
// list, reused across rows to avoid reallocation. Its zero value is
// ready for grow.
type spa struct {
	val     []float64
	present []bool
	idx     []int
}

// grow widens the accumulator to at least n columns. The kernels call
// it only for rows that need it, so a call whose rows are all copies
// never allocates one.
func (s *spa) grow(n int) {
	if len(s.val) < n {
		s.val, s.present = make([]float64, n), make([]bool, n)
	}
}

func (s *spa) add(j int, v float64) {
	if !s.present[j] {
		s.present[j] = true
		s.idx = append(s.idx, j)
	}
	s.val[j] += v
}

// productRow appends row i of A·B to cols/vals. A row of A with one
// entry a — every row of GraphSAGE's Q — is a·(that row of B): B's
// columns are already strictly increasing, so it is copied without the
// accumulator or a sort. Each value is written as 0 + a·b, the
// accumulator's zero plus its one product, so the copy is the SPA's
// result bit for bit (a −0 product becomes +0 there too). Any other row
// goes through the accumulator.
func (s *spa) productRow(cols []int, vals []float64, a, b *CSR, i int) ([]int, []float64) {
	acols, avals := a.Row(i)
	switch len(acols) {
	case 0:
		return cols, vals
	case 1:
		av := avals[0]
		bcols, bvals := b.Row(acols[0])
		cols = append(cols, bcols...)
		for _, bv := range bvals {
			vals = append(vals, 0+float64(av*bv))
		}
		return cols, vals
	}
	for k := range acols {
		av := avals[k]
		bcols, bvals := b.Row(acols[k])
		for t := range bcols {
			s.add(bcols[t], float64(av*bvals[t]))
		}
	}
	return s.drainInto(cols, vals)
}

// drainInto appends the accumulated (sorted) columns and values to the
// given buffers and resets the accumulator.
func (s *spa) drainInto(cols []int, vals []float64) ([]int, []float64) {
	base := len(cols)
	cols = append(cols, s.idx...)
	insertionSort(cols[base:])
	for _, j := range cols[base:] {
		vals = append(vals, s.val[j])
		s.val[j] = 0
		s.present[j] = false
	}
	s.idx = s.idx[:0]
	return cols, vals
}

// insertionSort sorts small integer slices in place; output rows of
// SpGEMM are typically short, where insertion sort beats sort.Ints.
func insertionSort(a []int) {
	if len(a) > 64 {
		quickSortInts(a)
		return
	}
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func quickSortInts(a []int) {
	for len(a) > 64 {
		p := partition(a)
		if p < len(a)-p {
			quickSortInts(a[:p])
			a = a[p+1:]
		} else {
			quickSortInts(a[p+1:])
			a = a[:p]
		}
	}
	insertionSort(a)
}

func partition(a []int) int {
	mid := len(a) / 2
	if a[0] > a[mid] {
		a[0], a[mid] = a[mid], a[0]
	}
	if a[0] > a[len(a)-1] {
		a[0], a[len(a)-1] = a[len(a)-1], a[0]
	}
	if a[mid] > a[len(a)-1] {
		a[mid], a[len(a)-1] = a[len(a)-1], a[mid]
	}
	pivot := a[mid]
	a[mid], a[len(a)-1] = a[len(a)-1], a[mid]
	i := 0
	for j := 0; j < len(a)-1; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[len(a)-1] = a[len(a)-1], a[i]
	return i
}

// AddCSR returns A + B for same-shaped sparse matrices: the merge of
// the two sources, freshly allocated and owned by the caller.
func AddCSR(a, b *CSR) *CSR {
	var acc spa
	return merge(new(CSR), &acc, []*CSR{a, b})
}

// merge is the one merge body, shared by AddCSR and
// Scratch.MergeCSRInto: it sums row-aligned matrices into out's
// storage. Per (row, column) the values add in source order, and each
// row's columns come out sorted. A row only one source populates —
// every row of a GraphSAGE product, whose Q row selects one row of A
// held by one source — is copied instead, each value written as the
// 0 + v the accumulator would produce; acc is widened only for rows
// several sources populate.
func merge(out *CSR, acc *spa, srcs []*CSR) *CSR {
	if len(srcs) == 0 {
		panic("sparse: merge needs at least one source")
	}
	rows, colsN := srcs[0].Rows, srcs[0].Cols
	total := 0
	for _, src := range srcs {
		if src.Rows != rows || src.Cols != colsN {
			panic(fmt.Sprintf("sparse: merge shape mismatch %v vs %dx%d", src, rows, colsN))
		}
		total += src.NNZ()
	}
	out.Rows, out.Cols = rows, colsN
	out.RowPtr = ensureInts(out.RowPtr, rows+1)
	out.RowPtr[0] = 0
	cols := ensureInts(out.ColIdx, total)[:0]
	vals := ensureFloats(out.Val, total)[:0]
	for i := 0; i < rows; i++ {
		var only *CSR
		populated := 0
		for _, src := range srcs {
			if src.RowNNZ(i) > 0 {
				only = src
				populated++
			}
		}
		switch {
		case populated == 1:
			cs, vs := only.Row(i)
			cols = append(cols, cs...)
			for _, v := range vs {
				vals = append(vals, 0+v)
			}
		case populated > 1:
			acc.grow(colsN)
			for _, src := range srcs {
				cs, vs := src.Row(i)
				for k := range cs {
					acc.add(cs[k], vs[k])
				}
			}
			cols, vals = acc.drainInto(cols, vals)
		}
		out.RowPtr[i+1] = len(cols)
	}
	out.ColIdx, out.Val = cols, vals
	return out
}
