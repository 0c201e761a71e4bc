package sparse

import (
	"fmt"
	"math"
)

// Semiring generalizes SpGEMM to arbitrary (⊕, ⊗) algebras, the
// GraphBLAS abstraction the paper's linear-algebraic approach builds
// on (Buluç & Gilbert's Combinatorial BLAS, GraphBLAST). Entries equal
// to Zero (the ⊕ identity) are dropped from results.
type Semiring struct {
	Name string
	Add  func(a, b float64) float64
	Mul  func(a, b float64) float64
	Zero float64
}

// PlusTimes is the arithmetic semiring (standard SpGEMM): counting
// walks, neighborhood sizes, the P = Q·A of Algorithm 1.
var PlusTimes = Semiring{
	Name: "plus-times",
	Add:  func(a, b float64) float64 { return a + b },
	Mul:  func(a, b float64) float64 { return a * b },
	Zero: 0,
}

// OrAnd is the boolean semiring: reachability and neighborhood
// membership without multiplicities.
var OrAnd = Semiring{
	Name: "or-and",
	Add: func(a, b float64) float64 {
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	},
	Mul: func(a, b float64) float64 {
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	},
	Zero: 0,
}

// MinPlus is the tropical semiring: single-step relaxation of shortest
// paths (A^k under min-plus gives exact k-hop distances).
var MinPlus = Semiring{
	Name: "min-plus",
	Add:  math.Min,
	Mul:  func(a, b float64) float64 { return a + b },
	Zero: math.Inf(1),
}

// SpGEMMSemiring computes C = A ⊗.⊕ B over the given semiring using
// the same Gustavson row-wise schedule as SpGEMM. The returned op
// count is the number of ⊗ applications. Slower than the specialized
// PlusTimes kernel (function-pointer dispatch); use SpGEMM for the
// arithmetic case on hot paths.
func SpGEMMSemiring(a, b *CSR, s Semiring) (c *CSR, ops int64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: SpGEMMSemiring dims %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	val := make([]float64, b.Cols)
	present := make([]bool, b.Cols)
	var idx []int
	for i := 0; i < a.Rows; i++ {
		idx = idx[:0]
		acols, avals := a.Row(i)
		for k := range acols {
			av := avals[k]
			bcols, bvals := b.Row(acols[k])
			for t := range bcols {
				j := bcols[t]
				prod := s.Mul(av, bvals[t])
				if !present[j] {
					present[j] = true
					val[j] = s.Zero
					idx = append(idx, j)
				}
				val[j] = s.Add(val[j], prod)
			}
			ops += int64(len(bcols))
		}
		insertionSort(idx)
		for _, j := range idx {
			if val[j] != s.Zero {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, val[j])
			}
			present[j] = false
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out, ops
}

// SpGEMMMasked computes C = M ⊙ (A ⊗.⊕ B): only entries present in
// the mask M's pattern are computed and stored (GraphBLAS masked
// multiplication). The classic use is triangle counting,
// nnz(A ⊙ (A·A))/6 on undirected graphs; masking also bounds the
// accumulator to the mask row, which is how hypersparse outputs stay
// cheap.
func SpGEMMMasked(a, b, mask *CSR, s Semiring) (c *CSR, ops int64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: SpGEMMMasked dims %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if mask.Rows != a.Rows || mask.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: mask %dx%d for %dx%d product",
			mask.Rows, mask.Cols, a.Rows, b.Cols))
	}
	out := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	val := make([]float64, b.Cols)
	inMask := make([]bool, b.Cols)
	touched := make([]bool, b.Cols)
	for i := 0; i < a.Rows; i++ {
		mcols, _ := mask.Row(i)
		for _, j := range mcols {
			inMask[j] = true
			val[j] = s.Zero
		}
		acols, avals := a.Row(i)
		for k := range acols {
			av := avals[k]
			bcols, bvals := b.Row(acols[k])
			for t := range bcols {
				j := bcols[t]
				if !inMask[j] {
					continue
				}
				val[j] = s.Add(val[j], s.Mul(av, bvals[t]))
				touched[j] = true
				ops++
			}
		}
		for _, j := range mcols {
			if touched[j] && val[j] != s.Zero {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, val[j])
			}
			inMask[j] = false
			touched[j] = false
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out, ops
}

// SpMVSemiring computes y = A ⊗.⊕ x over the semiring for a dense
// vector x (entries equal to Zero are treated as absent). Useful for
// frontier-style traversals (BFS under OrAnd, SSSP relaxation under
// MinPlus).
func SpMVSemiring(a *CSR, x []float64, s Semiring) []float64 {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("sparse: SpMVSemiring vector length %d, want %d", len(x), a.Cols))
	}
	y := make([]float64, a.Rows)
	for i := range y {
		y[i] = s.Zero
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			if x[c] == s.Zero {
				continue
			}
			y[i] = s.Add(y[i], s.Mul(vals[k], x[c]))
		}
	}
	return y
}
