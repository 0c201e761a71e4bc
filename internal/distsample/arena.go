package distsample

import (
	"repro/internal/sparse"
)

// stageArena is one rank's workspace for the 1.5D SpGEMM stage loop,
// recycled by position from run to run (see NewPartitionedSet). Before
// it, every stage of every layer rebuilt the same intermediates from
// fresh heap: the Q_ik column blocks, the NnzCols request list, the
// owner's extracted row payloads, the assembled right operand, the
// local product and the accumulator merge: 0.93 GB per partitioned
// small p=16 epoch of the perf suite, 4x the replicated path. A
// per-run arena brought that to 0.33 GB; copying one-hot rows instead
// of accumulating them and sharing one total per process row brought
// it to 0.24 GB (GOMAXPROCS=1). Handing the arenas of a finished run to
// the next one takes the arena share out of every run after the
// process's first (benchmark/ partitioned-dense: 0.46 GB → 0.02 GB per
// epoch). The arena owns buffers that successive stages and calls
// adopt, each resized to exactly the size the call computes for it
// before writing (a product's flop bound, a payload's summed row
// degrees); buffers scale with the active frontier's nonzeros, not
// with p.
//
// Reuse safety for the buffers that cross the wire rests on the
// rendezvous happens-before edges of the collectives:
//
//   - need (the Gather payload): the owner reads each member's request
//     list between leaving the Gather and entering the Scatter. A
//     requester rewrites its list only after leaving that Scatter —
//     which completes only after the owner arrived, i.e. after the
//     owner finished reading.
//   - parts (the Scatter payload): each member copies its part into
//     its assembled block before entering the next collective on the
//     column communicator. The owner rewrites its response arena no
//     earlier than its next extraction — behind a later Gather on the
//     same communicator, which cannot complete until every member
//     passed this stage.
//   - prods and res (the row all-reduce contribution and result):
//     AllReduceGenericInto folds all members' stage products inside
//     the rendezvous, before any member leaves, into the res buffer of
//     the first member's arena — the process row's one total, which
//     every member's total field then points at. While the fold runs,
//     every member is parked in the collective, so every arena is
//     quiescent; and every member's use of the previous total is over
//     by the time it re-enters (it consumed it to get here), so res is
//     safely rewritten. Members only read the total: the layer-wise
//     driver, whose Norm writes, normalizes its own copy (normed).
//     Contributed product storage is reusable as soon as the call
//     returns.
//
// Everything else (Q_ik blocks, SPA, products, normed) never leaves the
// rank. A stageArena serves one execution stream — the rank's sampling
// stream.
//
//gnnvet:arena
type stageArena struct {
	sparse.Scratch // SPA, NnzCols mark array, column-block slicing

	prods    []sparse.CSR  // per-stage local products, merged in the final fold
	prodPtrs []*sparse.CSR // prods as a fold source list, rebuilt per call
	asm      sparse.CSR    // assembled right operand A_k
	res      sparse.CSR    // the fold total, when this is the process row's first arena
	total    *sparse.CSR   // the process row's fold total (some member's res), read-only
	normed   sparse.CSR    // the layer-wise driver's private, normalized copy of the total

	// stamp counts the running accumulator's nonzeros without building
	// it: stamp[col] holds the tag of the last (call, row) that touched
	// the column, so a stage's new distinct (row, column) pairs are
	// countable in one pass over its product. nextTag makes tags unique
	// across calls. Calls whose Q has one entry per row never need it.
	stamp   []int
	nextTag int

	// foldSrcs is the reusable (member x stage) source list of the
	// all-reduce fold, owned by the first destination's arena.
	foldSrcs []*sparse.CSR

	// Owner-side response arenas: one flat allocation carved into
	// per-member row payloads (the shared flat layout FetchCached
	// introduced for the feature all-to-allv).
	partsBacking []rowPayload
	parts        []*rowPayload
	respHdrs     []sparse.CSR
	respRowPtr   []int
	respCols     []int
	respVals     []float64
}

// growInts returns buf with length n (contents unspecified),
// reallocating to exactly n only when it is too small: every caller
// computes n before it writes, so headroom would only be zeroed.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// arena returns the calling rank's workspace slot, building it on
// first use. Every rank indexes its own slot, so the lazy writes never
// race.
func (ps *Partitioned) arena(rank int) *stageArena {
	a := ps.arenas[rank]
	if a == nil {
		a = &stageArena{}
		ps.arenas[rank] = a
	}
	return a
}

// stageProds returns the per-stage product headers (persistent,
// grow-only) and the flat source list the fold consumes, in stage
// order.
func (ar *stageArena) stageProds(stages int) ([]sparse.CSR, []*sparse.CSR) {
	if cap(ar.prods) < stages {
		ar.prods = make([]sparse.CSR, stages)
		ar.prodPtrs = make([]*sparse.CSR, stages)
	}
	ar.prods = ar.prods[:stages]
	ar.prodPtrs = ar.prodPtrs[:stages]
	for t := range ar.prods {
		ar.prodPtrs[t] = &ar.prods[t]
	}
	return ar.prods, ar.prodPtrs
}

// beginCount readies the stamp array for one call's accumulator-size
// tracking over an n-column product and returns the call's tag base.
func (ar *stageArena) beginCount(n, rows int) int {
	if cap(ar.stamp) < n {
		ar.stamp = make([]int, n)
	}
	ar.stamp = ar.stamp[:n]
	base := ar.nextTag
	ar.nextTag += rows
	return base
}

// countStage returns how many of the stage product's (row, column)
// pairs are new to this call's running accumulator — together with the
// running total this reproduces, without building the accumulator, the
// exact NNZ sequence the old pairwise-merge chain charged.
func (ar *stageArena) countStage(prod *sparse.CSR, base int) int {
	n := 0
	for i := 0; i < prod.Rows; i++ {
		cs, _ := prod.Row(i)
		tag := base + i + 1 // +1: zero is the unstamped state
		for _, c := range cs {
			if ar.stamp[c] != tag {
				ar.stamp[c] = tag
				n++
			}
		}
	}
	return n
}

// foldStages combines the members' stage products inside the all-reduce
// rendezvous: per (row, column), values add in (member, stage) order —
// exactly the float sequence of the old per-member merge chains folded
// across members with AddCSR — into the first destination's res buffer,
// which becomes every member's read-only total. See stageArena for why
// rewriting it here is safe.
func foldStages(vals, dests []*stageArena) {
	d0 := dests[0]
	srcs := d0.foldSrcs[:0]
	for _, v := range vals {
		srcs = append(srcs, v.prodPtrs...)
	}
	d0.foldSrcs = srcs
	d0.MergeCSRInto(&d0.res, srcs)
	for _, d := range dests {
		d.total = &d0.res
	}
}

// extractParts serves one stage's row requests from the owner's block:
// lists[m] holds the (local) row ids member m asked for, and the
// result is the per-member payload slice Scatter expects. All payloads
// share one flat backing — the in-place form of the per-member
// ExtractRows calls, bit-identical per payload.
func (ar *stageArena) extractParts(a *sparse.CSR, lists [][]int) []*rowPayload {
	n := len(lists)
	if cap(ar.partsBacking) < n {
		ar.partsBacking = make([]rowPayload, n)
		ar.parts = make([]*rowPayload, n)
		ar.respHdrs = make([]sparse.CSR, n)
	}
	ar.partsBacking = ar.partsBacking[:n]
	ar.parts = ar.parts[:n]
	ar.respHdrs = ar.respHdrs[:n]
	totalRows, totalNNZ := 0, 0
	for _, lst := range lists {
		totalRows += len(lst)
		for _, row := range lst {
			totalNNZ += a.RowNNZ(row)
		}
	}
	ar.respRowPtr = growInts(ar.respRowPtr, totalRows+n)
	ar.respCols = growInts(ar.respCols, totalNNZ)
	ar.respVals = growFloats(ar.respVals, totalNNZ)
	rpOff, nzOff := 0, 0
	for m, lst := range lists {
		h := &ar.respHdrs[m]
		h.Rows, h.Cols = len(lst), a.Cols
		h.RowPtr = ar.respRowPtr[rpOff : rpOff+len(lst)+1]
		rpOff += len(lst) + 1
		nnz := 0
		for _, row := range lst {
			nnz += a.RowNNZ(row)
		}
		cols := ar.respCols[nzOff : nzOff : nzOff+nnz]
		vals := ar.respVals[nzOff : nzOff : nzOff+nnz]
		nzOff += nnz
		h.RowPtr[0] = 0
		for i, row := range lst {
			cs, vs := a.Row(row)
			cols = append(cols, cs...)
			vals = append(vals, vs...)
			h.RowPtr[i+1] = len(cols)
		}
		h.ColIdx, h.Val = cols, vals
		ar.partsBacking[m] = rowPayload{rows: h}
		ar.parts[m] = &ar.partsBacking[m]
	}
	return ar.parts
}

// assembleBlockInto is assembleBlock into a reusable matrix: row
// ids[i] of the (height x rows.Cols) block is payload row i.
func assembleBlockInto(out *sparse.CSR, height int, ids []int, rows *sparse.CSR) *sparse.CSR {
	out.Rows, out.Cols = height, rows.Cols
	out.RowPtr = growInts(out.RowPtr, height+1)
	out.RowPtr[0] = 0
	nnz := rows.NNZ()
	cols := growInts(out.ColIdx, nnz)[:0]
	vals := growFloats(out.Val, nnz)[:0]
	cursor := 0
	for i := 0; i < height; i++ {
		if cursor < len(ids) && ids[cursor] == i {
			cs, vs := rows.Row(cursor)
			cols = append(cols, cs...)
			vals = append(vals, vs...)
			cursor++
		}
		out.RowPtr[i+1] = len(cols)
	}
	if cursor != len(ids) {
		panic("distsample: row payload misaligned with request")
	}
	out.ColIdx, out.Val = cols, vals
	return out
}
