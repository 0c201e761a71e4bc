package sparse

import "testing"

// Edge cases for the stacking and extraction kernels: empty matrices
// (zero rows), zero-column matrices and empty selections all occur in
// practice when a rank's bulk round has no real batches, so the
// kernels must produce structurally valid results rather than panic.

func TestVStackEmptyAndZeroColumnMatrices(t *testing.T) {
	// Stacking empty (0-row) matrices between non-empty ones.
	a := FromDense(2, 3, []float64{1, 0, 2, 0, 3, 0})
	empty := Zero(0, 3)
	s := VStack(empty, a, empty, a, empty)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rows != 4 || s.Cols != 3 || s.NNZ() != 2*a.NNZ() {
		t.Fatalf("stacked shape %dx%d nnz %d", s.Rows, s.Cols, s.NNZ())
	}
	if s.At(2, 0) != 1 || s.At(3, 1) != 3 {
		t.Fatalf("second copy misplaced: %v %v", s.At(2, 0), s.At(3, 1))
	}

	// All-empty stack keeps the column count.
	s = VStack(Zero(0, 7), Zero(0, 7))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rows != 0 || s.Cols != 7 || s.NNZ() != 0 {
		t.Fatalf("empty stack shape %dx%d nnz %d", s.Rows, s.Cols, s.NNZ())
	}

	// Zero-column matrices stack to a zero-column matrix.
	s = VStack(Zero(2, 0), Zero(3, 0))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rows != 5 || s.Cols != 0 {
		t.Fatalf("zero-column stack shape %dx%d", s.Rows, s.Cols)
	}
}

func TestBlockDiagEmptyAndZeroColumnBlocks(t *testing.T) {
	// No blocks at all: the empty 0x0 matrix.
	s := BlockDiag()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rows != 0 || s.Cols != 0 {
		t.Fatalf("empty block diag shape %dx%d", s.Rows, s.Cols)
	}

	// Zero-row and zero-column blocks still shift the offsets of the
	// blocks after them.
	a := FromDense(1, 2, []float64{5, 6})
	s = BlockDiag(Zero(0, 3), a, Zero(2, 0), a)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rows != 0+1+2+1 || s.Cols != 3+2+0+2 {
		t.Fatalf("block diag shape %dx%d", s.Rows, s.Cols)
	}
	// First copy of a sits at rows 0, cols [3,5); second at row 3,
	// cols [5,7).
	if s.At(0, 3) != 5 || s.At(0, 4) != 6 {
		t.Fatalf("first block misplaced")
	}
	if s.At(3, 5) != 5 || s.At(3, 6) != 6 {
		t.Fatalf("second block not shifted past zero-column block")
	}
}
