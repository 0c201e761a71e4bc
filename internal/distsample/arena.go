package distsample

import (
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// stageArena is one rank's workspace for the 1.5D SpGEMM stage loop:
// what a member of a process row holds per call, and what it serves as
// an owner. What the row shares — P, the draw and the fold's scratch —
// is the row's rowFold. Both are recycled by position from run to run
// (see NewPartitionedSet; DESIGN.md "Arenas & sweep parallelism" has
// the allocation history: 0.93 GB per partitioned small p=16 epoch
// before the arenas). Its buffers are resized to exactly the size a call
// computes before writing, and entry buffers scale with the active
// frontier's nonzeros. Some headers scale with the grid whatever the
// rank's work: q = p/c² per arena (asms, blocks, the Q_ik block headers
// and their q·(rows+1) row pointers, the block bounds) and p/c per
// owner (extractParts' payload headers); a rowFold lists its row's p/c
// blocks (rowBlocks).
//
// Reuse safety for the buffers the row fold or another member reads
// rests on the rendezvous happens-before edges of the collectives:
//
//   - need (the Gather payload): the owner reads each member's request
//     list between leaving the Gather and entering the Scatter. A
//     requester rewrites its list only after leaving that Scatter —
//     which completes only after the owner arrived, i.e. after the
//     owner finished reading.
//   - parts (the Scatter payload): each member's assembled block
//     (asms) aliases its part's columns and values, and the fold reads
//     them inside the row all-reduce. An owner owns one block row, so it
//     serves at most one stage of a call, and rewrites its response
//     arena no earlier than its next call's extraction — behind that
//     call's Gather on the same column communicator, which completes
//     only once every column member has arrived, i.e. has left this
//     call's fold.
//   - asms (the aware path's per-stage assembled blocks): stage t
//     writes asms[t]'s row pointers at assembly, its ColIdx and Val
//     being the payload's (above); the fold (stageRows) reads every
//     member's blocks inside the row all-reduce, while every member is
//     parked; only the next call's stage t rewrites asms[t], and a
//     member makes that call only after leaving the fold.
//   - blocks (stage t's right operand A_k): asms[t], or, on the
//     sparsity-oblivious path, the broadcast owner block itself — a
//     read-only view of A, which nobody writes. The fold reads it like
//     asms, listed in the rowFold's rowBlocks; the set's release drops
//     the references.
//   - q and fin (the call's Q and finish step): each member sets them
//     before it enters the row all-reduce, whose fold reads Q beside the
//     blocks and checks that the finish steps agree.
//
// Everything else never leaves the rank. A stageArena serves one
// execution stream — the rank's sampling stream.
//
//gnnvet:arena
type stageArena struct {
	sparse.Scratch // NnzCols mark array, column-block slicing

	asms   []sparse.CSR  // per-stage assembled right operand A_k (sparsity-aware)
	blocks []*sparse.CSR // per-stage right operand A_k of the call in flight, read-only
	q      *sparse.CSR   // the call's Q, which the fold reads beside the blocks
	fin    finishStep    // this member's finish step for the call in flight
	row    *rowFold      // the process row's fold, which foldStages reaches through the members

	// stamp counts the running sum's nonzeros without building it:
	// stamp[col] holds the tag of the last (call, row) that touched the
	// column, so a stage's new distinct (row, column) pairs are countable
	// in one pass over the rows of A_k its Q_ik names. nextTag makes tags
	// unique across calls. Calls whose Q has one entry per row never
	// need it.
	stamp   []int
	nextTag int

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

// rowFold is a process row's fold: what Algorithm 2's row all-reduce
// (line 14) makes once for the row's c members — P, read from their
// blocks, and the row's one draw from it. It is held by the row's
// shared Partitioned and recycled with its set by position. The fold
// (foldStages) reaches it through the members' contributions
// (stageArena.row) and runs inside the rendezvous, while every member
// is parked, so it is the one writer. Each member then reads P's row
// pointers (ptr) and the draw from it, read-only, and is done with them
// before it enters the row's next all-reduce, so the next fold may
// rewrite them. P is a layer-wise sampler's, summed by spa into res and
// normalized there, or read in place through view over the members'
// blocks (rowBlocks), its row pointers in viewPtr. The node-wise draw's
// stripes draw at once, through one dense.ParallelRows fan-out: stripe
// t writes only stripePicks[t], and the join reads them after the
// fan-out has returned. The draw record holds only pointers to freshly
// allocated samples, so the next draw never rewrites a sample a member
// still holds. No member recycles one: a process row's c members hold
// the same layers (ExtractBatch copies what it hands on), and the row
// is their one owner.
//
//gnnvet:arena
type rowFold struct {
	spa       sparse.Scratch // sums a layer-wise sampler's P
	res       sparse.CSR     // a layer-wise sampler's P
	viewPtr   []int          // P's row pointers, read in place
	ptr       []int          // P's row pointers (res's or viewPtr), read-only
	view      stageRows      // the reader of A's rows in the row's blocks
	rowBlocks []*sparse.CSR  // the row's blocks in block-row order, view's
	draw      rowDraw        // the row's draw, read-only

	// The node-wise draw's row stripes: stripe t covers rows
	// [stripeLo[t], stripeLo[t+1]) of P and draws into stripePicks[t].
	// They grow to the largest stripe count seen (GOMAXPROCS) and are
	// reused.
	stripePicks []core.RowPicks
	stripeLo    []int
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
	a := ps.arenas.stages[rank]
	if a == nil {
		a = &stageArena{}
		ps.arenas.stages[rank] = a
	}
	return a
}

// sizeStages sizes the per-stage operand slots (asms, blocks) for a
// call of the given stage count; they persist and only grow.
func (ar *stageArena) sizeStages(stages int) {
	if cap(ar.blocks) < stages {
		ar.asms = make([]sparse.CSR, stages)
		ar.blocks = make([]*sparse.CSR, stages)
	}
	ar.asms, ar.blocks = ar.asms[:stages], ar.blocks[:stages]
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

// countStage returns how many (row, column) pairs of the stage product
// Q_k·A_k are new to this call's running sum, without multiplying: row
// i of the product holds the union of the columns of the rows of ak
// that row i of qk names. With the running total this reproduces the
// exact NNZ sequence a pairwise merge of the stage products charges.
func (ar *stageArena) countStage(qk, ak *sparse.CSR, base int) int {
	n := 0
	for i := 0; i < qk.Rows; i++ {
		tag := base + i + 1 // +1: zero is the unstamped state
		us, _ := qk.Row(i)
		for _, u := range us {
			cs, _ := ak.Row(u)
			for _, c := range cs {
				if ar.stamp[c] != tag {
					ar.stamp[c] = tag
					n++
				}
			}
		}
	}
	return n
}

// foldStages is the row all-reduce's fold (Algorithm 2 line 14), run
// once for the process row inside the rendezvous. It reads P = Q·A
// from the blocks the members' stages received (readP) and completes
// the layer from it once, into the row's draw record: a node-wise draw
// in row stripes (drawStripes), a layer-wise step serially
// (drawLayerwise). Each member then reads both from the row fold. See
// rowFold for why rewriting them here is safe.
func foldStages(members []*stageArena) {
	agree(members)
	rf, fin := members[0].row, members[0].fin
	rf.readP(members)
	if fin.nodewise() {
		rf.drawStripes(fin, foldStripes(len(rf.ptr)-1, int64(rf.ptr[len(rf.ptr)-1])))
	} else {
		rf.draw = fin.drawLayerwise(&rf.view, &rf.res)
	}
}

// readP points the view at the members' blocks, in block-row order
// (member j's stage t received block row j·stages + t), and lays out
// P's row pointers in ptr. A layer-wise sampler's P is summed from the
// view into res by sparse's one SpGEMM body, each row over Q's entries
// in column order, as sparse.SpGEMM(Q, A) sums it. Any other P is read
// in place: its row i is row of[i] of A, Q's columns, and its row
// pointers are laid out in viewPtr.
func (rf *rowFold) readP(members []*stageArena) {
	q := members[0].q
	rf.rowBlocks = rf.rowBlocks[:0]
	for _, m := range members {
		rf.rowBlocks = append(rf.rowBlocks, m.blocks...)
	}
	rf.view.blocks, rf.view.of = rf.rowBlocks, nil
	if members[0].fin.layerwiseP() {
		p, _ := rf.spa.SpGEMM(&rf.res, q, &rf.view)
		rf.ptr = p.RowPtr[:p.Rows+1]
		return
	}
	rf.view.of = q.ColIdx[:q.Rows]
	rf.viewPtr = rf.view.rowPtr(rf.viewPtr)
	rf.ptr = rf.viewPtr
}

// foldStripes is the node-wise draw's stripe count: one where
// dense.Serial keeps a kernel on the calling goroutine (a small P, or
// one core), else one per GOMAXPROCS worker and at most one per row.
func foldStripes(rows int, nnz int64) int {
	if dense.Serial(rows, nnz) {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), rows)
}

// drawStripes draws a node-wise layer from P, read in place, in k row
// stripes through one dense.ParallelRows fan-out (none for one stripe):
// each stripe draws its rows where the stages received them into its
// own RowPicks, and core.JoinRows joins the stripes in row order. A
// drawn row reads only its own row of P and reseeds its draw from its
// row index, so each stripe writes what the serial pass writes for its
// rows (TestFoldInPlaceStripesMatchSerial).
func (rf *rowFold) drawStripes(fin finishStep, k int) {
	rf.splitStripes(rf.viewPtr, k)
	if k == 1 {
		rf.drawStripe(fin, 0)
	} else {
		dense.ParallelRows(k, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				rf.drawStripe(fin, t)
			}
		})
	}
	ls, cost := core.JoinRows(fin.cur, rf.stripePicks[:k])
	rf.draw = rowDraw{layer: ls, cost: cost}
}

// splitStripes sizes the stripe scratch for k stripes and bounds them
// so that each covers about an equal share of P's entries plus rows —
// what a stripe's prefix sums and row loop cost.
func (rf *rowFold) splitStripes(rowPtr []int, k int) {
	if len(rf.stripePicks) < k {
		rf.stripePicks = append(rf.stripePicks, make([]core.RowPicks, k-len(rf.stripePicks))...)
	}
	rows := len(rowPtr) - 1
	weight := rowPtr[rows] + rows
	rf.stripeLo = growInts(rf.stripeLo, k+1)
	for t := range k {
		target := int(int64(weight) * int64(t) / int64(k))
		rf.stripeLo[t] = sort.Search(rows, func(i int) bool { return rowPtr[i]+i >= target })
	}
	rf.stripeLo[k] = rows
}

// drawStripe draws stripe t's rows of P in place. It writes only
// stripe t's picks.
func (rf *rowFold) drawStripe(fin finishStep, t int) {
	fin.s.(nodewiseFinisher).FinishRows(&rf.view, rf.view.of, rf.stripeLo[t], rf.stripeLo[t+1], fin.size, fin.seed, &rf.stripePicks[t])
}

// stageRows reads A's rows by global vertex from the blocks a driver's
// stages received — the 1.5D row fold's A_k blocks, the 1D baseline's
// p broadcasts — blocks[k] holding block row k of A
// (graph.BlockRowRange over len(blocks) blocks). For a Q whose every
// row holds one unit entry (GraphSAGE's Q, a layer-wise extraction's
// Q_R) it is P = Q·A, read in place: row i of P is row of[i] of A, of
// being Q's columns. A layer-wise sampler's P is summed from it, as A,
// by sparse's SpGEMM body (readP). It names A (Matrix), so a GraphSAGE
// draw takes each row's prefix sums from A's RowCDF table when the
// sampler holds it. A −0 weight of A reads as −0, where P holds 0 + 1·w
// = +0: the node-wise draw treats them alike (core.SAGE.FinishRows), and
// a layer-wise layer keeps A's.
type stageRows struct {
	a      *sparse.CSR   // the matrix the blocks are pieces of; only its size is read
	of     []int         // read as P: row i of P is row of[i] of A
	blocks []*sparse.CSR // block row k of A, as a stage received it
}

// at locates row u of A: the block holding it and its row there.
func (v *stageRows) at(u int) (*sparse.CSR, int) {
	k := graph.BlockOwner(v.a.Rows, len(v.blocks), u)
	lo, _ := graph.BlockRowRange(v.a.Rows, len(v.blocks), k)
	return v.blocks[k], u - lo
}

// Matrix names A, the matrix whose rows Row reads (see core.RowReader).
func (v *stageRows) Matrix() *sparse.CSR { return v.a }

// Dims implements core.RowReader: A's shape.
func (v *stageRows) Dims() (rows, cols int) { return v.a.Rows, v.a.Cols }

// Row implements core.RowReader: row u of A.
func (v *stageRows) Row(u int) ([]int, []float64) {
	b, row := v.at(u)
	return b.Row(row)
}

// RowNNZ implements core.RowReader.
func (v *stageRows) RowNNZ(u int) int {
	b, row := v.at(u)
	return b.RowNNZ(row)
}

// rowPtr returns P's row pointers, read in place, in buf's storage:
// what the stripe split weighs, and P's size.
func (v *stageRows) rowPtr(buf []int) []int {
	buf = growInts(buf, len(v.of)+1)
	buf[0] = 0
	for i, u := range v.of {
		buf[i+1] = buf[i] + v.RowNNZ(u)
	}
	return buf
}

// extractParts serves one stage's row requests from the owner's block:
// lists[m] holds the (local) row ids member m asked for, and the
// result is the per-member payload slice Scatter expects: member m's
// requested rows of a, in request order. All payloads share one flat
// backing.
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

// assembleBlockInto lays a scattered payload out as the (height x
// rows.Cols) block it is part of, in out: row ids[i] of the block is
// payload row i, every other row is empty. ids ascend (NonzeroCols
// sorts them) and the payload holds its rows in that order, so the
// block's entries are the payload's, in order: out gets its own row
// pointers, and its ColIdx and Val alias the payload's — read-only, and
// valid until the owner's next extraction (see stageArena's parts).
func assembleBlockInto(out *sparse.CSR, height int, ids []int, rows *sparse.CSR) *sparse.CSR {
	if rows.Rows != len(ids) {
		panic(errMisaligned)
	}
	out.Rows, out.Cols = height, rows.Cols
	out.RowPtr = growInts(out.RowPtr, height+1)
	out.RowPtr[0] = 0
	cursor := 0
	for i := 0; i < height; i++ {
		if cursor < len(ids) && ids[cursor] == i {
			cursor++
		}
		out.RowPtr[i+1] = rows.RowPtr[cursor]
	}
	if cursor != len(ids) {
		panic(errMisaligned)
	}
	nnz := rows.NNZ()
	out.ColIdx, out.Val = rows.ColIdx[:nnz], rows.Val[:nnz]
	return out
}

// errMisaligned is assembleBlockInto's diagnostic for a payload whose
// rows do not match the ascending request list it answers.
const errMisaligned = "distsample: row payload misaligned with request"
