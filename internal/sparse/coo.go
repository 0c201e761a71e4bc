package sparse

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format sparse matrix used as a construction
// staging format; convert to CSR with ToCSR before computation.
type COO struct {
	Rows, Cols int
	R, C       []int
	V          []float64
}

// NewCOO returns an empty COO matrix with capacity hint nnz.
func NewCOO(rows, cols, nnz int) *COO {
	return &COO{
		Rows: rows,
		Cols: cols,
		R:    make([]int, 0, nnz),
		C:    make([]int, 0, nnz),
		V:    make([]float64, 0, nnz),
	}
}

// Add appends entry (i, j) = v. Duplicate coordinates are summed during
// ToCSR.
func (m *COO) Add(i, j int, v float64) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: COO entry (%d,%d) outside %dx%d", i, j, m.Rows, m.Cols))
	}
	m.R = append(m.R, i)
	m.C = append(m.C, j)
	m.V = append(m.V, v)
}

// NNZ returns the number of (possibly duplicate) stored entries.
func (m *COO) NNZ() int { return len(m.R) }

// ToCSR converts to CSR, sorting entries and summing duplicates.
func (m *COO) ToCSR() *CSR {
	n := len(m.R)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if m.R[ia] != m.R[ib] {
			return m.R[ia] < m.R[ib]
		}
		return m.C[ia] < m.C[ib]
	})

	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	out.ColIdx = make([]int, 0, n)
	out.Val = make([]float64, 0, n)
	prevR, prevC := -1, -1
	for _, idx := range order {
		r, c, v := m.R[idx], m.C[idx], m.V[idx]
		if r == prevR && c == prevC {
			out.Val[len(out.Val)-1] += v
			continue
		}
		out.ColIdx = append(out.ColIdx, c)
		out.Val = append(out.Val, v)
		out.RowPtr[r+1]++
		prevR, prevC = r, c
	}
	for i := 0; i < m.Rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out
}

// FromEntries builds a CSR matrix from explicit (row, col, val) triples,
// summing duplicates. It is a convenience for tests and examples.
func FromEntries(rows, cols int, entries [][3]float64) *CSR {
	coo := NewCOO(rows, cols, len(entries))
	for _, e := range entries {
		coo.Add(int(e[0]), int(e[1]), e[2])
	}
	return coo.ToCSR()
}

// FromDense builds a CSR matrix from a row-major dense slice, storing
// every nonzero entry. For tests and small examples.
//
//gnnvet:allow deadexport — builds hand-written fixtures in the sparse, graph and core tests
func FromDense(rows, cols int, data []float64) *CSR {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("sparse: FromDense got %d values for %dx%d", len(data), rows, cols))
	}
	coo := NewCOO(rows, cols, len(data)/4)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := data[i*cols+j]; v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}
