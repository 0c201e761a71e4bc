package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExtractRowsMatchesSpGEMM(t *testing.T) {
	// Row extraction must equal multiplying by a one-nonzero-per-row
	// selector matrix Q_R (Section 4.2.3).
	a := exampleGraph()
	rows := []int{1, 5, 1}
	got := ExtractRows(a, rows)
	// Build Q_R directly from COO to keep rows in requested order.
	coo := NewCOO(len(rows), a.Rows, len(rows))
	for i, r := range rows {
		coo.Add(i, r, 1)
	}
	want, _ := SpGEMM(coo.ToCSR(), a)
	if !Equal(got, want, 0) {
		t.Fatalf("ExtractRows != Q_R*A:\n%v\n%v", got.ToDense(), want.ToDense())
	}
}

func TestBlockDiagMatchesBulkLadiesIdentity(t *testing.T) {
	// blockdiag(A1, A2) * vstack-of-column-extractors must equal the
	// per-block products stacked (Section 4.2.4 structure).
	rng := rand.New(rand.NewSource(23))
	a1 := randomCSR(rng, 3, 5, 0.5)
	a2 := randomCSR(rng, 4, 6, 0.5)
	bd := BlockDiag(a1, a2)
	if err := bd.Validate(); err != nil {
		t.Fatal(err)
	}
	if bd.Rows != 7 || bd.Cols != 11 || bd.NNZ() != a1.NNZ()+a2.NNZ() {
		t.Fatalf("block diag shape wrong: %v", bd)
	}
	// Column extractors picking columns {1,3} of each block, and the same
	// two stacked into one 11x2 extractor.
	qc1 := NewCOO(5, 2, 2)
	qc1.Add(1, 0, 1)
	qc1.Add(3, 1, 1)
	qc2 := NewCOO(6, 2, 2)
	qc2.Add(1, 0, 1)
	qc2.Add(3, 1, 1)
	stacked := NewCOO(11, 2, 4)
	stacked.Add(1, 0, 1)
	stacked.Add(3, 1, 1)
	stacked.Add(5+1, 0, 1)
	stacked.Add(5+3, 1, 1)
	got, _ := SpGEMM(bd, stacked.ToCSR())
	w1, _ := SpGEMM(a1, qc1.ToCSR())
	w2, _ := SpGEMM(a2, qc2.ToCSR())
	if !Equal(SliceRows(got, 0, 3), w1, 1e-12) || !Equal(SliceRows(got, 3, 7), w2, 1e-12) {
		t.Fatal("block-diagonal bulk extraction disagrees with per-block products")
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

func TestSliceRowsWholeMatrix(t *testing.T) {
	a := exampleGraph()
	if !Equal(SliceRows(a, 0, a.Rows), a, 0) {
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

func TestExtractRowsStacksAsQ(t *testing.T) {
	// Property: extracting rows r1..rn then summing row sums equals
	// summing the original degrees — the extraction is lossless.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCSR(rng, 10, 10, 0.3)
		rows := make([]int, 1+rng.Intn(10))
		for i := range rows {
			rows[i] = rng.Intn(10)
		}
		ex := ExtractRows(a, rows)
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
	acc := Zero(6, 9)
	var sc Scratch
	lo, hi := []int{0, 5, 9}, []int{5, 9, 12}
	for t, qik := range sc.SliceColBlocks(q, lo, hi) {
		ak := SliceRows(a, lo[t], hi[t])
		part, _ := SpGEMM(qik, ak)
		acc = AddCSR(acc, part)
	}
	if !Equal(full, acc, 1e-12) {
		t.Fatal("staged block product != full product")
	}
}
