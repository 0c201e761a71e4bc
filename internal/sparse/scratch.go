package sparse

// Scratch is a reusable workspace for the sparse kernels on a hot
// loop — the 1.5D SpGEMM stage loop rebuilds the same intermediate
// shapes every stage of every layer of every epoch, and the per-call
// allocations were the simulator's dominant heap cost at partitioned
// scale. A Scratch owns growable buffers that successive calls adopt
// instead of allocating; results returned by its methods alias the
// workspace and are valid only until the next call on the same
// Scratch (callers that need longer lifetimes copy, exactly where
// they always had to Clone).
//
// A Scratch serves one logical execution stream: it is not
// goroutine-safe, and in the simulator each rank's sampling stream
// owns its own instance.
//
//gnnvet:arena
type Scratch struct {
	// sparse accumulator for SpGEMM, sized to the widest operand
	// seen; allocated by the first row that needs one.
	acc spa

	// mark/out buffers for NonzeroCols.
	mark []bool
	need []int

	// column-block slicing arenas: one flat buffer carved into
	// per-block regions plus reusable headers.
	blockRowPtr []int
	blockCols   []int
	blockVals   []float64
	blockHdrs   []CSR
	blockPtrs   []*CSR
	blockLo     []int
	blockHi     []int
	blockFill   []int
}

// ensureInts returns buf resized to length n (contents unspecified),
// reallocating to exactly n only when it is too small. Every caller
// knows its size before writing — a product's flop bound, a block's
// entry count — so headroom would only be zeroed, never used within
// the call.
func ensureInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func ensureFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// SpGEMM computes C = A * B into out, reusing out's storage and the
// workspace's accumulator, and reading B through a RowReader: the arena
// form of the package SpGEMM, with the same body (see spgemm), rows and
// flop count.
func (s *Scratch) SpGEMM(out *CSR, a *CSR, b RowReader) (*CSR, int64) {
	return spgemm(out, &s.acc, a, b)
}

// NonzeroCols returns the sorted distinct column indices that appear in
// A, via the workspace's mark array. This is the NnzCols primitive of
// Algorithm 2 (the sparsity-aware 1.5D SpGEMM): only these columns of
// the left matrix require rows of the right matrix. The result aliases
// the workspace.
func (s *Scratch) NonzeroCols(a *CSR) []int {
	if len(s.mark) < a.Cols {
		s.mark = make([]bool, a.Cols)
	}
	out := s.need[:0]
	for _, c := range a.ColIdx {
		if !s.mark[c] {
			s.mark[c] = true
			out = append(out, c)
		}
	}
	insertionSort(out)
	for _, c := range out {
		s.mark[c] = false
	}
	s.need = out
	return out
}

// SliceColBlocks slices A's columns into the contiguous blocks
// [lo[0],hi[0]) .. [lo[k-1],hi[k-1]) in one pass, with each block's
// column indices shifted down by its lo: block t is the Q_ik block of
// Algorithm 2 for columns [lo[t], hi[t]). The blocks must be ascending
// and contiguous (hi[t] == lo[t+1]); columns outside [lo[0], hi[k-1])
// are dropped. One O(nnz + stages) pass replaces a per-stage column
// scan (O(stages·nnz)). The returned matrices alias the workspace.
func (s *Scratch) SliceColBlocks(a *CSR, lo, hi []int) []*CSR {
	k := len(lo)
	if k == 0 || len(hi) != k {
		panic("sparse: SliceColBlocks needs matching nonempty block bounds")
	}
	for t := 0; t < k; t++ {
		if lo[t] > hi[t] || (t > 0 && lo[t] != hi[t-1]) {
			panic("sparse: SliceColBlocks blocks must be ascending and contiguous")
		}
	}
	first := lo[0]

	// Counting pass: per-block entry totals.
	s.blockFill = ensureInts(s.blockFill, k)
	counts := s.blockFill
	for t := range counts {
		counts[t] = 0
	}
	for i := 0; i < a.Rows; i++ {
		cs, _ := a.Row(i)
		t := 0
		for _, c := range cs {
			if c < first {
				continue
			}
			for t < k && c >= hi[t] {
				t++
			}
			if t == k {
				break
			}
			counts[t]++
		}
	}

	// Carve one flat arena into per-block regions.
	s.blockRowPtr = ensureInts(s.blockRowPtr, k*(a.Rows+1))
	total := 0
	for _, n := range counts {
		total += n
	}
	s.blockCols = ensureInts(s.blockCols, total)
	s.blockVals = ensureFloats(s.blockVals, total)
	if cap(s.blockHdrs) < k {
		s.blockHdrs = make([]CSR, k)
		s.blockPtrs = make([]*CSR, k)
	}
	s.blockHdrs = s.blockHdrs[:k]
	s.blockPtrs = s.blockPtrs[:k]
	off := 0
	for t := 0; t < k; t++ {
		h := &s.blockHdrs[t]
		h.Rows, h.Cols = a.Rows, hi[t]-lo[t]
		h.RowPtr = s.blockRowPtr[t*(a.Rows+1) : (t+1)*(a.Rows+1)]
		h.RowPtr[0] = 0
		h.ColIdx = s.blockCols[off : off : off+counts[t]]
		h.Val = s.blockVals[off : off : off+counts[t]]
		off += counts[t]
		s.blockPtrs[t] = h
	}

	// Fill pass: column indices ascend within a row, so a single block
	// cursor walks each row once.
	for i := 0; i < a.Rows; i++ {
		cs, vs := a.Row(i)
		t := 0
		for e, c := range cs {
			if c < first {
				continue
			}
			for t < k && c >= hi[t] {
				t++
			}
			if t == k {
				break
			}
			h := &s.blockHdrs[t]
			h.ColIdx = append(h.ColIdx, c-lo[t])
			h.Val = append(h.Val, vs[e])
		}
		for t := 0; t < k; t++ {
			h := &s.blockHdrs[t]
			h.RowPtr[i+1] = len(h.ColIdx)
		}
	}
	return s.blockPtrs
}

// BlockBounds returns reusable lo/hi buffers of length k from the
// workspace for SliceColBlocks callers to fill.
func (s *Scratch) BlockBounds(k int) (lo, hi []int) {
	s.blockLo = ensureInts(s.blockLo, k)
	s.blockHi = ensureInts(s.blockHi, k)
	return s.blockLo, s.blockHi
}
