package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// rowSelector is Q_R of Section 4.2.3: one unit entry per row, row i
// selecting row rows[i] of an n-row matrix. Built from COO to keep the
// rows in the requested order, repeats included.
func rowSelector(rows []int, n int) *CSR {
	coo := NewCOO(len(rows), n, len(rows))
	for i, r := range rows {
		coo.Add(i, r, 1)
	}
	return coo.ToCSR()
}

// gatherRows is the reference row extraction: the given rows of A, in
// order, copied.
func gatherRows(a *CSR, rows []int) *CSR {
	out := &CSR{Rows: len(rows), Cols: a.Cols, RowPtr: make([]int, len(rows)+1)}
	for i, r := range rows {
		cols, vals := a.Row(r)
		out.ColIdx = append(out.ColIdx, cols...)
		out.Val = append(out.Val, vals...)
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

func TestExtractRowsMatchesSpGEMM(t *testing.T) {
	// The row-extraction SpGEMM Q_R·A (Section 4.2.3) must equal
	// gathering the selected rows of A.
	a := exampleGraph()
	rows := []int{1, 5, 1}
	got, _ := SpGEMM(rowSelector(rows, a.Rows), a)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := gatherRows(a, rows); !Equal(got, want) {
		t.Fatalf("Q_R*A != gathered rows:\n%v\n%v", got.ToDense(), want.ToDense())
	}
}

func TestExtractRowsStacksAsQ(t *testing.T) {
	// Property: the row sums of Q_R·A are the row sums of the rows Q_R
	// selects — the extraction is lossless, repeats included.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCSR(rng, 10, 10, 0.3)
		rows := make([]int, 1+rng.Intn(10))
		for i := range rows {
			rows[i] = rng.Intn(10)
		}
		ex, _ := SpGEMM(rowSelector(rows, a.Rows), a)
		sums := a.RowSums()
		exSums := ex.RowSums()
		for i, r := range rows {
			if math.Abs(exSums[i]-sums[r]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceRows(t *testing.T) {
	a := exampleGraph()
	s := SliceRows(a, 2, 5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rows != 3 {
		t.Fatalf("slice rows = %d, want 3", s.Rows)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < a.Cols; j++ {
			if s.At(i, j) != a.At(i+2, j) {
				t.Fatalf("slice mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestSliceRowsViewsA: the slice's columns and values are A's, in A's
// storage, and capped at the slice's last entry, so an append
// reallocates instead of writing A's next row.
func TestSliceRowsViewsA(t *testing.T) {
	a := exampleGraph()
	s := SliceRows(a, 2, 5)
	base, end := a.RowPtr[2], a.RowPtr[5]
	if &s.ColIdx[0] != &a.ColIdx[base] || &s.Val[0] != &a.Val[base] {
		t.Fatal("the slice copied A's entries")
	}
	if cap(s.ColIdx) != end-base || cap(s.Val) != end-base {
		t.Fatalf("capacities %d and %d, want %d", cap(s.ColIdx), cap(s.Val), end-base)
	}
	next := a.ColIdx[end]
	s.ColIdx = append(s.ColIdx, -1)
	if a.ColIdx[end] != next {
		t.Fatal("an append to the slice wrote A's next row")
	}
}

func TestSliceRowsWholeMatrix(t *testing.T) {
	a := exampleGraph()
	if !Equal(SliceRows(a, 0, a.Rows), a) {
		t.Fatal("full slice differs from original")
	}
}

func TestNonzeroCols(t *testing.T) {
	m := FromEntries(2, 10, [][3]float64{{0, 7, 1}, {1, 2, 1}, {1, 7, 1}})
	var sc Scratch
	got := sc.NonzeroCols(m)
	if len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Fatalf("NonzeroCols = %v, want [2 7]", got)
	}
}

func TestColRange(t *testing.T) {
	a := exampleGraph()
	var sc Scratch
	sub := sc.SliceColBlocks(a, []int{2}, []int{5})[0]
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.Cols != 3 {
		t.Fatalf("cols = %d, want 3", sub.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 2; j < 5; j++ {
			if sub.At(i, j-2) != a.At(i, j) {
				t.Fatalf("column block mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestColRangePartitionReassembles(t *testing.T) {
	// Summing Q_ik · A_k over column-range blocks must equal Q·A — the
	// algebraic identity behind the staged 1.5D SpGEMM.
	rng := rand.New(rand.NewSource(31))
	q := randomCSR(rng, 6, 12, 0.3)
	a := randomCSR(rng, 12, 9, 0.3)
	full, _ := SpGEMM(q, a)
	want, acc := full.ToDense(), make([]float64, 6*9)
	var sc Scratch
	lo, hi := []int{0, 5, 9}, []int{5, 9, 12}
	for t, qik := range sc.SliceColBlocks(q, lo, hi) {
		part, _ := SpGEMM(qik, SliceRows(a, lo[t], hi[t]))
		for e, v := range part.ToDense() {
			acc[e] += v
		}
	}
	for e := range want {
		if math.Abs(want[e]-acc[e]) > 1e-12 {
			t.Fatalf("staged block product != full product at %d: %v vs %v", e, acc[e], want[e])
		}
	}
}
