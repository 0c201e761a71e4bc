package sparse

import "fmt"

// RowReader reads a sparse matrix's rows in place, as *CSR does: row
// i's column indices and weights, its length, and the matrix's shape.
// SpGEMM's body reads its right operand through one, and the samplers'
// draws read P or A through one (core.RowReader), so a driver holding A
// in pieces — the blocks of A the 1.5D and 1D stages received — reads
// and multiplies A's rows without assembling it.
type RowReader interface {
	Row(i int) (cols []int, vals []float64)
	RowNNZ(i int) int
	Dims() (rows, cols int)
}

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
// Each row of C sums A's entries in column order through one
// accumulator. A sizing pass bounds the output by the flop count
// (collisions only shrink it), so out's storage grows at most once;
// productRow then appends each row. acc is widened only when some row
// of A has several entries. The body is serial: inside a rank body the
// other ranks already hold the cores. Kernels stripe (dense.ParallelRows,
// the module's one kernel fan-out) only inside the two row folds — the
// sum all-reduce's and the 1.5D row fold, distsample.foldStages — which
// run while every rank of their communicator is parked.
func spgemm(out *CSR, acc *spa, a *CSR, b RowReader) (*CSR, int64) {
	bRows, bCols := b.Dims()
	if a.Cols != bRows {
		panic(fmt.Sprintf("sparse: SpGEMM dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, bRows, bCols))
	}
	bound := 0
	for i := 0; i < a.Rows; i++ {
		acols, _ := a.Row(i)
		if len(acols) > 1 {
			acc.grow(bCols)
		}
		for _, arow := range acols {
			bound += b.RowNNZ(arow)
		}
	}
	out.Rows, out.Cols = a.Rows, bCols
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
func (s *spa) productRow(cols []int, vals []float64, a *CSR, b RowReader, i int) ([]int, []float64) {
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
