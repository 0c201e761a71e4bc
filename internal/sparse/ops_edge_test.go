package sparse

import "testing"

// Edge cases for the block-diagonal and extraction kernels: empty matrices
// (zero rows), zero-column matrices and empty selections all occur in
// practice when a rank's bulk round has no real batches, so the
// kernels must produce structurally valid results rather than panic.

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
