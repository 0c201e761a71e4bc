package sparse

import "fmt"

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

// Add appends entry (i, j) = v. Duplicate coordinates are summed, in
// insertion order, during ToCSR.
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

// ToCSR converts to CSR: entries sorted by (row, column), duplicate
// coordinates summed in insertion order. Two stable counting passes,
// by column and then by row, make it O(nnz + rows + cols).
func (m *COO) ToCSR() *CSR {
	n := len(m.R)
	colNext := make([]int, m.Cols+1)
	for _, c := range m.C {
		colNext[c+1]++
	}
	for j := 0; j < m.Cols; j++ {
		colNext[j+1] += colNext[j]
	}
	byCol := make([]int, n)
	for k, c := range m.C {
		byCol[colNext[c]] = k
		colNext[c]++
	}

	// Scatter by row into the output arrays. Afterwards RowPtr[i] is
	// the end of row i's (still uncompacted) span.
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for _, r := range m.R {
		out.RowPtr[r+1]++
	}
	for i := 0; i < m.Rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	out.ColIdx = make([]int, n)
	out.Val = make([]float64, n)
	for _, k := range byCol {
		pos := out.RowPtr[m.R[k]]
		out.ColIdx[pos] = m.C[k]
		out.Val[pos] = m.V[k]
		out.RowPtr[m.R[k]]++
	}

	// Compact in place, summing each run of equal columns in order.
	w, begin := 0, 0
	for i := 0; i < m.Rows; i++ {
		end := out.RowPtr[i]
		out.RowPtr[i] = w
		for pos := begin; pos < end; pos++ {
			if c := out.ColIdx[pos]; w > out.RowPtr[i] && out.ColIdx[w-1] == c {
				out.Val[w-1] += out.Val[pos]
			} else {
				out.ColIdx[w] = c
				out.Val[w] = out.Val[pos]
				w++
			}
		}
		begin = end
	}
	out.RowPtr[m.Rows] = w
	out.ColIdx = out.ColIdx[:w]
	out.Val = out.Val[:w]
	return out
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
