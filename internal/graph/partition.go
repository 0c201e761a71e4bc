package graph

import "fmt"

// BlockRowRange returns the half-open row interval [Lo, Hi) owned by
// block `idx` out of `blocks` when n rows are distributed in contiguous
// balanced block rows (the 1D and 1.5D partitioning of Section 5).
func BlockRowRange(n, blocks, idx int) (lo, hi int) {
	if idx < 0 || idx >= blocks {
		panic(fmt.Sprintf("graph: block index %d outside %d blocks", idx, blocks))
	}
	base := n / blocks
	rem := n % blocks
	lo = idx*base + min(idx, rem)
	size := base
	if idx < rem {
		size++
	}
	return lo, lo + size
}

// BlockOwner returns the block index owning row r under BlockRowRange
// partitioning.
func BlockOwner(n, blocks, r int) int {
	base := n / blocks
	rem := n % blocks
	// First rem blocks have size base+1.
	boundary := rem * (base + 1)
	if r < boundary {
		return r / (base + 1)
	}
	if base == 0 {
		return rem // degenerate: more blocks than rows
	}
	return rem + (r-boundary)/base
}

// Batches splits the given training vertex ids into contiguous batches
// of size b (the final batch may be smaller). The returned slices alias
// train.
func Batches(train []int, b int) [][]int {
	if b <= 0 {
		panic("graph: batch size must be positive")
	}
	var out [][]int
	for lo := 0; lo < len(train); lo += b {
		hi := lo + b
		if hi > len(train) {
			hi = len(train)
		}
		out = append(out, train[lo:hi])
	}
	return out
}
