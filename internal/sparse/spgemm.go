package sparse

import (
	"fmt"
	"runtime"
	"sync"
)

// SpGEMM computes C = A * B for sparse A and B using Gustavson's
// row-wise algorithm with a sparse accumulator, parallelized over row
// blocks of A; a row of A with one entry is a scaled copy of a row of
// B and skips the accumulator (see productRow). The returned flop count
// is the number of scalar multiply-add pairs the algorithm performs,
// which the cluster cost model uses to charge simulated device time.
func SpGEMM(a, b *CSR) (c *CSR, flops int64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: SpGEMM dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	if workers < 1 {
		workers = 1
	}
	// Each worker drains its rows into one growing arena instead of a
	// pair of fresh slices per row: the two allocations per output row
	// were among the simulator's top allocation sites.
	type arena struct {
		lo, hi int
		cols   []int
		vals   []float64
		ends   []int // arena offset of each row's end, relative to lo
		flops  int64
		multi  bool // some row has several entries and needs an accumulator
	}
	chunk := (a.Rows + workers - 1) / workers
	arenas := make([]arena, 0, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		// The flop count bounds the arena's output size (collisions
		// only shrink it), so one up-front sizing pass over the row
		// pointers avoids every growth reallocation.
		bound, multi := 0, false
		for i := lo; i < hi; i++ {
			acols, _ := a.Row(i)
			multi = multi || len(acols) > 1
			for _, arow := range acols {
				bound += b.RowNNZ(arow)
			}
		}
		// bound is also the arena's exact flop count: one multiply-add
		// per (a-nonzero, b-row-nonzero) pair.
		arenas = append(arenas, arena{lo: lo, hi: hi, flops: int64(bound), multi: multi,
			cols: make([]int, 0, bound), vals: make([]float64, 0, bound),
			ends: make([]int, 0, hi-lo)})
	}
	var wg sync.WaitGroup
	for w := range arenas {
		wg.Add(1)
		go func(ar *arena) {
			defer wg.Done()
			var acc *spa
			if ar.multi {
				acc = newSPA(b.Cols)
			}
			for i := ar.lo; i < ar.hi; i++ {
				ar.cols, ar.vals = acc.productRow(ar.cols, ar.vals, a, b, i)
				ar.ends = append(ar.ends, len(ar.cols))
			}
		}(&arenas[w])
	}
	wg.Wait()

	total := 0
	for w := range arenas {
		total += len(arenas[w].cols)
		flops += arenas[w].flops
	}
	if len(arenas) == 1 {
		// Single worker (small input or GOMAXPROCS=1): adopt the arena
		// wholesale instead of copying it into a fresh matrix.
		ar := &arenas[0]
		out := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1),
			ColIdx: ar.cols, Val: ar.vals}
		for r, end := range ar.ends {
			out.RowPtr[r+1] = end
		}
		return out, flops
	}
	out := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int, 0, total), Val: make([]float64, 0, total)}
	for w := range arenas {
		ar := &arenas[w]
		base := len(out.ColIdx)
		out.ColIdx = append(out.ColIdx, ar.cols...)
		out.Val = append(out.Val, ar.vals...)
		for r, end := range ar.ends {
			out.RowPtr[ar.lo+r+1] = base + end
		}
	}
	return out, flops
}

// SpGEMMFlops returns the flop count of A*B without forming the
// product. Used for symbolic cost estimation.
func SpGEMMFlops(a, b *CSR) int64 {
	var flops int64
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			flops += int64(b.RowNNZ(c))
		}
	}
	return flops
}

// spa is a sparse accumulator: a dense value array plus an occupancy
// list, reused across rows to avoid reallocation.
type spa struct {
	val     []float64
	present []bool
	idx     []int
}

func newSPA(n int) *spa {
	return &spa{val: make([]float64, n), present: make([]bool, n)}
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
// goes through the accumulator, which may be nil when no row of A has
// more than one entry.
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
// given buffers and resets the accumulator — the allocation-free form
// SpGEMM's per-worker arenas use.
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

// AddCSR returns A + B for same-shaped sparse matrices, merging rows.
func AddCSR(a, b *CSR) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: AddCSR shape mismatch %v vs %v", a, b))
	}
	out := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	out.ColIdx = make([]int, 0, a.NNZ()+b.NNZ())
	out.Val = make([]float64, 0, a.NNZ()+b.NNZ())
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		x, y := 0, 0
		for x < len(ac) && y < len(bc) {
			switch {
			case ac[x] < bc[y]:
				out.ColIdx = append(out.ColIdx, ac[x])
				out.Val = append(out.Val, av[x])
				x++
			case ac[x] > bc[y]:
				out.ColIdx = append(out.ColIdx, bc[y])
				out.Val = append(out.Val, bv[y])
				y++
			default:
				out.ColIdx = append(out.ColIdx, ac[x])
				out.Val = append(out.Val, av[x]+bv[y])
				x++
				y++
			}
		}
		for ; x < len(ac); x++ {
			out.ColIdx = append(out.ColIdx, ac[x])
			out.Val = append(out.Val, av[x])
		}
		for ; y < len(bc); y++ {
			out.ColIdx = append(out.ColIdx, bc[y])
			out.Val = append(out.Val, bv[y])
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}
