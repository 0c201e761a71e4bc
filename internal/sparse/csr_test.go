package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// exampleGraph returns the 6-vertex adjacency matrix used in Figure 1
// of the paper.
func exampleGraph() *CSR {
	return FromDense(6, 6, []float64{
		0, 1, 0, 0, 0, 0,
		1, 0, 1, 0, 1, 0,
		0, 1, 0, 1, 1, 0,
		0, 0, 1, 0, 1, 1,
		0, 1, 1, 1, 0, 1,
		0, 0, 0, 1, 1, 0,
	})
}

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	coo := NewCOO(rows, cols, int(float64(rows*cols)*density)+1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func TestValidateExampleGraph(t *testing.T) {
	a := exampleGraph()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 16 {
		t.Fatalf("NNZ = %d, want 16", a.NNZ())
	}
	if a.At(1, 4) != 1 || a.At(0, 3) != 0 {
		t.Fatalf("At lookups wrong: (1,4)=%v (0,3)=%v", a.At(1, 4), a.At(0, 3))
	}
}

func TestCOODuplicateSum(t *testing.T) {
	coo := NewCOO(2, 2, 4)
	coo.Add(0, 1, 2)
	coo.Add(0, 1, 3)
	coo.Add(1, 0, 1)
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("duplicate sum = %v, want 5", got)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestCOOAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range COO entry")
		}
	}()
	NewCOO(2, 2, 1).Add(2, 0, 1)
}

// Identity returns the n x n identity matrix.
func Identity(n int) *CSR {
	m := &CSR{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, n),
		Val:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}

// Transpose returns the transposed matrix using a counting pass.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr[:m.Cols]...)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			pos := next[c]
			next[c]++
			t.ColIdx[pos] = i
			t.Val[pos] = m.Val[k]
		}
	}
	return t
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := randomCSR(rng, 1+rng.Intn(20), 1+rng.Intn(20), 0.3)
		tt := a.Transpose().Transpose()
		if !Equal(a, tt, 0) {
			t.Fatalf("transpose not an involution on trial %d", trial)
		}
		if err := a.Transpose().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	a := exampleGraph()
	at := a.Transpose()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestRowSumsAndNormalize(t *testing.T) {
	a := exampleGraph()
	sums := a.RowSums()
	want := []float64{1, 3, 3, 3, 4, 2} // degrees of the example graph
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("row %d sum = %v, want %v", i, sums[i], want[i])
		}
	}
	b := a.Clone()
	b.NormalizeRows()
	for i, s := range b.RowSums() {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("normalized row %d sums to %v", i, s)
		}
	}
}

func TestNormalizeRowsZeroRow(t *testing.T) {
	m := Zero(3, 3)
	m.NormalizeRows() // must not panic or produce NaN
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaleRows(t *testing.T) {
	a := exampleGraph()
	a.ScaleRows([]float64{1, 2, 3, 4, 5, 6})
	if a.At(1, 0) != 2 || a.At(5, 3) != 6 {
		t.Fatalf("ScaleRows wrong: %v %v", a.At(1, 0), a.At(5, 3))
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(5)
	if err := id.Validate(); err != nil {
		t.Fatal(err)
	}
	a := randomCSR(rand.New(rand.NewSource(2)), 5, 7, 0.4)
	prod, _ := SpGEMM(id, a)
	if !Equal(a, prod, 0) {
		t.Fatal("I*A != A")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := exampleGraph()
	b := a.Clone()
	b.Val[0] = 99
	if a.Val[0] == 99 {
		t.Fatal("Clone shares value storage")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := map[string]func(*CSR){
		"rowptr decreasing": func(m *CSR) { m.RowPtr[1] = m.RowPtr[2] + 1 },
		"column too large":  func(m *CSR) { m.ColIdx[0] = m.Cols },
		"negative column":   func(m *CSR) { m.ColIdx[0] = -1 },
		"nan value":         func(m *CSR) { m.Val[0] = math.NaN() },
		"unsorted columns": func(m *CSR) {
			m.ColIdx[1], m.ColIdx[2] = m.ColIdx[2], m.ColIdx[1]
		},
	}
	for name, corrupt := range cases {
		m := exampleGraph()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted matrix", name)
		}
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		data := make([]float64, rows*cols)
		for i := range data {
			if rng.Float64() < 0.4 {
				data[i] = float64(1 + rng.Intn(9))
			}
		}
		m := FromDense(rows, cols, data)
		if m.Validate() != nil {
			return false
		}
		back := m.ToDense()
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesPositive(t *testing.T) {
	if exampleGraph().Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
}

// RowSums returns the sum of values in each row.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k]
		}
		out[i] = s
	}
	return out
}

// ScaleRows multiplies every entry of row i by f[i], in place.
func (m *CSR) ScaleRows(f []float64) {
	if len(f) != m.Rows {
		panic(fmt.Sprintf("sparse: ScaleRows factor length %d, want %d", len(f), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			m.Val[k] *= f[i]
		}
	}
}

// ToDense materializes the matrix as a row-major dense slice, for tests
// and small examples only.
func (m *CSR) ToDense() []float64 {
	out := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out[i*m.Cols+m.ColIdx[k]] = m.Val[k]
		}
	}
	return out
}

// Zero returns an empty rows x cols matrix.
func Zero(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
}
