package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// FromEntries builds a CSR matrix from explicit (row, col, val) triples,
// summing duplicates in insertion order.
func FromEntries(rows, cols int, entries [][3]float64) *CSR {
	coo := NewCOO(rows, cols, len(entries))
	for _, e := range entries {
		coo.Add(int(e[0]), int(e[1]), e[2])
	}
	return coo.ToCSR()
}

// referenceCSR is ToCSR's contract written the obvious way: a stable
// sort of the entries by (row, column), then each run of equal
// coordinates summed left to right, that is, in insertion order.
func referenceCSR(m *COO) *CSR {
	order := make([]int, m.NNZ())
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := order[a], order[b]
		if m.R[ka] != m.R[kb] {
			return m.R[ka] < m.R[kb]
		}
		return m.C[ka] < m.C[kb]
	})
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1),
		ColIdx: []int{}, Val: []float64{}}
	for i, k := range order {
		if i > 0 && m.R[k] == m.R[order[i-1]] && m.C[k] == m.C[order[i-1]] {
			out.Val[len(out.Val)-1] += m.V[k]
			continue
		}
		out.ColIdx = append(out.ColIdx, m.C[k])
		out.Val = append(out.Val, m.V[k])
		out.RowPtr[m.R[k]+1]++
	}
	for i := 0; i < m.Rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out
}

func sameCSRBits(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !reflect.DeepEqual(a.RowPtr, b.RowPtr) ||
		len(a.ColIdx) != len(b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

func TestToCSRMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	shapes := [][2]int{{0, 0}, {0, 7}, {7, 0}, {1, 1}, {1, 9}, {9, 1}, {5, 5}, {3, 40}, {40, 3}, {64, 64}}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		for trial := 0; trial < 20; trial++ {
			nnz := 0
			if rows > 0 && cols > 0 {
				nnz = rng.Intn(4 * (rows + cols))
			}
			// Heavy duplication: draw from a few hot coordinates, and leave
			// some rows and columns empty by narrowing the drawn range.
			hotR, hotC := 1+rng.Intn(max(rows, 1)), 1+rng.Intn(max(cols, 1))
			m := NewCOO(rows, cols, nnz)
			for k := 0; k < nnz; k++ {
				v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(33)-16))
				m.Add(rng.Intn(hotR), rng.Intn(hotC), v)
			}
			got, want := m.ToCSR(), referenceCSR(m)
			if err := got.Validate(); err != nil {
				t.Fatalf("%dx%d trial %d: %v", rows, cols, trial, err)
			}
			if !sameCSRBits(got, want) {
				t.Fatalf("%dx%d trial %d: ToCSR differs from the stable-sort reference", rows, cols, trial)
			}
		}
	}
}

// TestToCSRSumsDuplicatesInInsertionOrder pins a non-associative sum:
// (1e16 + 1) + -1e16 is 0 in float64, while (1e16 + -1e16) + 1 is 1.
func TestToCSRSumsDuplicatesInInsertionOrder(t *testing.T) {
	m := NewCOO(2, 3, 5)
	m.Add(1, 2, 1e16)
	m.Add(0, 0, 4)
	m.Add(1, 2, 1)
	m.Add(1, 0, 5)
	m.Add(1, 2, -1e16)
	got := m.ToCSR()
	want := &CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 1, 3}, ColIdx: []int{0, 0, 2}, Val: []float64{4, 5, 0}}
	if !sameCSRBits(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}
