// Package sparse implements the sparse matrix kernels that the
// matrix-based sampling formulation of Tripathy et al. (MLSys 2024) is
// built on: CSR/COO storage, Gustavson-style SpGEMM, sparse-times-dense
// SpMM, transposition, row/column extraction, vertical stacking and
// block-diagonal composition.
//
// All matrices are immutable once constructed unless a method is
// explicitly documented as mutating. Every operation that models work
// performed on an accelerator reports an operation count (see Flops
// fields and return values) so that the cluster cost model in
// internal/cluster can charge simulated device time.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed sparse row matrix with float64 values.
//
// Invariants (checked by Validate):
//   - len(RowPtr) == Rows+1, RowPtr[0] == 0, RowPtr is non-decreasing,
//   - len(ColIdx) == len(Val) == RowPtr[Rows],
//   - column indices within each row are strictly increasing and in
//     [0, Cols).
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return m.RowPtr[m.Rows] }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Dims returns the matrix's shape (see RowReader).
func (m *CSR) Dims() (rows, cols int) { return m.Rows, m.Cols }

// Row returns views of the column indices and values of row i.
// The returned slices alias the matrix and must not be modified.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns the value at (i, j), or 0 if no entry is stored.
//
//gnnvet:allow deadexport — the sparse, core, gnn and graph tests read single entries with it
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Bytes returns the approximate in-memory size of the matrix payload,
// used by the communication cost model when a matrix is transferred.
func (m *CSR) Bytes() int {
	// 8 bytes per index (int64 on the wire) plus 8 per value plus the
	// row pointer array.
	return 8*len(m.RowPtr) + 16*m.NNZ()
}

// Validate checks the CSR invariants, returning a descriptive error on
// the first violation. It is O(nnz) and intended for tests and
// construction-time checks, not inner loops.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimension %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("sparse: RowPtr decreases at row %d", i)
		}
	}
	nnz := m.RowPtr[m.Rows]
	if len(m.ColIdx) != nnz || len(m.Val) != nnz {
		return fmt.Errorf("sparse: index/value lengths (%d, %d) disagree with RowPtr nnz %d",
			len(m.ColIdx), len(m.Val), nnz)
	}
	for i := 0; i < m.Rows; i++ {
		prev := -1
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			if c < 0 || c >= m.Cols {
				return fmt.Errorf("sparse: row %d has column %d outside [0,%d)", i, c, m.Cols)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at %d", i, c)
			}
			prev = c
		}
	}
	for k, v := range m.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sparse: non-finite value at entry %d", k)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// NormalizeRows scales each nonempty row so its values sum to 1, in
// place. Rows whose sum is zero are left untouched.
func (m *CSR) NormalizeRows() {
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k]
		}
		if s == 0 {
			continue
		}
		inv := 1 / s
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			m.Val[k] *= inv
		}
	}
}

// Apply replaces every stored value v with f(v), in place.
func (m *CSR) Apply(f func(float64) float64) {
	for k := range m.Val {
		m.Val[k] = f(m.Val[k])
	}
}

// Equal reports whether two matrices have identical shape and entries
// within tol.
func Equal(a, b *CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		if len(ac) != len(bc) {
			return false
		}
		for k := range ac {
			if ac[k] != bc[k] || math.Abs(av[k]-bv[k]) > tol {
				return false
			}
		}
	}
	return true
}

func (m *CSR) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d}", m.Rows, m.Cols, m.NNZ())
}
