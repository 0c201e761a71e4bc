package distsample

import (
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/graph"
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
// epoch). Drawing GraphSAGE's layer from the stage blocks in place
// (stageRows) leaves no stage product, merge or total to build
// (partitioned-dense peak RSS 423 MB → 115 MB), nor does a layer-wise
// extraction's Q_R·A; an aware stage's block aliases the payload it
// received instead of copying it (assembleBlockInto). The arena owns
// buffers that successive stages and calls adopt, each resized to
// exactly the size the call computes for it before writing (a product's
// flop bound, a payload's summed row degrees); buffers scale with the
// active frontier's nonzeros, not with p.
//
// Reuse safety for the buffers that cross the wire rests on the
// rendezvous happens-before edges of the collectives:
//
//   - need (the Gather payload): the owner reads each member's request
//     list between leaving the Gather and entering the Scatter. A
//     requester rewrites its list only after leaving that Scatter —
//     which completes only after the owner arrived, i.e. after the
//     owner finished reading.
//   - parts (the Scatter payload): each member's assembled block
//     (asms) aliases its part's columns and values, and members read
//     them until the call's fold ends: the stage product (SpGEMM)
//     within the stage, the in-place draw inside the row all-reduce.
//     An owner owns one block row, so it serves at most one stage of a
//     call, and rewrites its response arena no earlier than its next
//     call's extraction — behind that call's Gather on the same column
//     communicator, which completes only once every column member has
//     arrived, i.e. has left this call's fold.
//   - asms (the aware path's per-stage assembled blocks): stage t
//     writes asms[t]'s row pointers at assembly, its ColIdx and Val
//     being the payload's (above); the in-place draw (stageRows) reads
//     every member's blocks inside the row all-reduce, while every
//     member is parked; only the next call's stage t rewrites asms[t],
//     and a member makes that call only after leaving the fold.
//   - blocks (stage t's right operand A_k): asms[t], or, on the
//     sparsity-oblivious path, the broadcast owner block itself — a
//     read-only reference to the owner's ALocal, which nobody writes
//     once the set is built. The fold reads it like asms, listed in the
//     first arena's rowBlocks; the set's release drops the references.
//   - prods and res (the row all-reduce contribution and result):
//     AllReduceGenericInto folds all members' stage products inside
//     the rendezvous, before any member leaves, into the res buffer of
//     the first member's arena — the process row's one total, which
//     every member's total field then points at. While the fold runs,
//     every member is parked in the collective, so every arena is
//     quiescent; and every member's use of the previous total is over
//     by the time it re-enters (it consumed it to get here), so res is
//     safely rewritten. Members only read the total. Contributed
//     product storage is reusable as soon as the call returns.
//   - the fold's stripes (stripeAcc, stripePicks, stripeLo; first
//     arena): the fold fills res in row stripes, at once, through one
//     dense.ParallelRows fan-out. Every member is parked while it runs,
//     so nothing else reads res or the stage products; stripe t writes
//     only res's rows [stripeLo[t], stripeLo[t+1]) — disjoint ranges of
//     ColIdx and Val, which the count pass sized and pointed at before
//     the fan-out — and its own accumulator and pick buffers, and the
//     join that reads them runs after the fan-out has returned. Drawing
//     in place, the stripes write no res: they read the members' Q and
//     blocks, and view, rowBlocks and viewPtr, which the fold wrote
//     before the fan-out. Every member's ptr then points at res's row
//     pointers or at viewPtr, which members read after the fold and
//     only the row's next fold rewrites.
//   - fin, draw and normed (the layer's sample): each member states
//     its finish step in fin before it enters the all-reduce; the fold
//     checks that they agree, draws once from the total into the first
//     arena's draw record — the layer, or a layer-wise sampler's
//     sampled sets and then its extraction onto them; the layer-wise
//     Norm, which writes, on a copy in the first arena's normed — and
//     points every member's drawn field at that record. The record
//     holds only pointers to freshly allocated samples, so the next
//     draw rewrites the record, never a sample a member still holds.
//     A drawn sample is read-only for every member, and no member
//     recycles it: a process row's c members hold the same layers in
//     their BulkSamples (ExtractBatch copies what it hands on), so none
//     of them owns one alone. The set's release drops the record.
//
// Everything else (Q_ik blocks, SPA, products) never leaves the rank,
// but for the Q the fold reads beside the blocks (q): each member
// allocates its own per call and reads it again only after the fold.
// A stageArena serves one execution stream — the rank's sampling
// stream.
//
//gnnvet:arena
type stageArena struct {
	sparse.Scratch // SPA, NnzCols mark array, column-block slicing

	prods     []sparse.CSR  // per-stage local products, merged in the final fold
	prodPtrs  []*sparse.CSR // prods as a fold source list, rebuilt per call
	asms      []sparse.CSR  // per-stage assembled right operand A_k (sparsity-aware)
	blocks    []*sparse.CSR // per-stage right operand A_k of the call in flight, read-only
	q         *sparse.CSR   // the call's Q when the fold reads P in place (stageRows), else nil
	a         *sparse.CSR   // with q: the set's A, of which blocks hold pieces
	res       sparse.CSR    // the fold total, when this is the process row's first arena
	ptr       []int         // P's row pointers (some member's res.RowPtr or viewPtr), read-only, set by the fold
	fin       finishStep    // this member's finish step for the call in flight
	draw      rowDraw       // the fold's draw, when this is the process row's first arena
	drawn     *rowDraw      // the process row's draw (some member's draw), read-only; nil without fin
	normed    sparse.CSR    // the layer-wise draw's normalized copy of the total (first arena)
	view      stageRows     // the in-place reader of A's rows (first arena)
	viewPtr   []int         // P's row pointers read in place (first arena)
	rowBlocks []*sparse.CSR // the process row's blocks in block-row order, view's (first arena)

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

	// The fold's row stripes (first arena): stripe t covers rows
	// [stripeLo[t], stripeLo[t+1]) of P and owns stripeAcc[t], its
	// merge accumulator, and stripePicks[t], its node-wise draw. They
	// grow to the largest stripe count seen (GOMAXPROCS) and are reused.
	stripeAcc   []sparse.Scratch
	stripePicks []core.RowPicks
	stripeLo    []int

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
// order, and sizes the per-stage operand slots (asms, blocks) with
// them.
func (ar *stageArena) stageProds(stages int) ([]sparse.CSR, []*sparse.CSR) {
	if cap(ar.prods) < stages {
		ar.prods = make([]sparse.CSR, stages)
		ar.prodPtrs = make([]*sparse.CSR, stages)
		ar.asms = make([]sparse.CSR, stages)
		ar.blocks = make([]*sparse.CSR, stages)
	}
	ar.prods = ar.prods[:stages]
	ar.prodPtrs = ar.prodPtrs[:stages]
	ar.asms = ar.asms[:stages]
	ar.blocks = ar.blocks[:stages]
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
// pairwise across members — into the first destination's res buffer,
// the process row's one total. With a finish step it then draws the
// layer's sample from P, once for the process row, into the first
// destination's draw record, every member's read-only draw. A count pass
// lays the total out (MergeLayout), then row stripes fill it (see fold).
// See stageArena for why rewriting both here is safe. When the members
// drew no products (q set), nothing is merged: the fold reads P's rows
// in place (readInPlace). Every destination gets P's row pointers.
func foldStages(vals, dests []*stageArena) {
	agree(vals)
	d0, fin := dests[0], vals[0].fin
	var srcs []*sparse.CSR
	if vals[0].q != nil {
		d0.readInPlace(vals)
	} else {
		srcs = d0.foldSrcs[:0]
		for _, v := range vals {
			srcs = append(srcs, v.prodPtrs...)
		}
		d0.foldSrcs = srcs
		d0.MergeLayout(&d0.res, srcs)
	}
	rowPtr := d0.rowPtr(srcs)
	drawn := d0.fold(srcs, fin, foldStripes(len(rowPtr)-1, int64(rowPtr[len(rowPtr)-1])))
	for _, d := range dests {
		d.ptr, d.drawn = rowPtr, drawn
	}
}

// readInPlace points d0's view at P's rows in the members' blocks, in
// block-row order (member j's stage t received block row j·stages + t),
// and lays out P's row pointers in viewPtr.
func (d0 *stageArena) readInPlace(members []*stageArena) {
	m0 := members[0]
	d0.rowBlocks = d0.rowBlocks[:0]
	for _, m := range members {
		d0.rowBlocks = append(d0.rowBlocks, m.blocks...)
	}
	d0.view = stageRows{a: m0.a, of: m0.q.ColIdx[:m0.q.Rows], blocks: d0.rowBlocks}
	d0.viewPtr = d0.view.rowPtr(d0.viewPtr)
}

// foldStripes is the row fold's stripe count: one where dense.Serial
// keeps a kernel on the calling goroutine (a small total, or one
// core), else one per GOMAXPROCS worker and at most one per row.
func foldStripes(rows int, nnz int64) int {
	if dense.Serial(rows, nnz) {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), rows)
}

// rowPtr returns P's row pointers: with srcs, those of the total
// MergeLayout laid out in res; without, the in-place view's.
func (d0 *stageArena) rowPtr(srcs []*sparse.CSR) []int {
	if srcs == nil {
		return d0.viewPtr
	}
	return d0.res.RowPtr[:d0.res.Rows+1]
}

// fold completes the layer from P in k row stripes, through one
// dense.ParallelRows fan-out (none for one stripe), and returns it (nil
// without a finish step). With srcs, P is the total MergeLayout laid
// out in res, and each stripe first fills its rows of it; without, P is
// read in place (view), and only a node-wise draw gives the stripes
// work, so an extraction fans out none. A node-wise stripe draws its
// rows — just merged, while they are in cache, or read where the stages
// received them — into its own RowPicks, and core.JoinRows joins the stripes in row
// order. Neither step can move a bit: a merged row reads only its own
// rows of srcs, in source order, and a drawn row reseeds its draw from
// its row index, so each stripe writes what the serial pass writes for
// its rows (TestFoldStripesMatchSerial). A layer-wise draw stays serial
// after the stripes: its Norm (LADIES, FastGCN) sums columns over all
// rows, and the extraction onto the sampled sets, read in place, is one
// call.
func (d0 *stageArena) fold(srcs []*sparse.CSR, fin finishStep, k int) *rowDraw {
	d0.splitStripes(d0.rowPtr(srcs), k)
	if k == 1 || srcs == nil && !fin.nodewise() {
		d0.foldStripe(srcs, fin, 0)
	} else {
		dense.ParallelRows(k, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				d0.foldStripe(srcs, fin, t)
			}
		})
	}
	switch {
	case fin.s == nil:
		return nil
	case fin.nodewise():
		ls, cost := core.JoinRows(fin.cur, d0.stripePicks[:k])
		d0.draw = rowDraw{layer: ls, cost: cost}
	default:
		d0.draw = fin.drawLayerwise(&d0.view, &d0.res, &d0.normed)
	}
	return &d0.draw
}

// splitStripes sizes the stripe scratch for k stripes and bounds them
// so that each covers about an equal share of P's entries plus rows —
// what a stripe's copies, prefix sums and row loop cost.
func (d0 *stageArena) splitStripes(rowPtr []int, k int) {
	if len(d0.stripeAcc) < k {
		d0.stripeAcc = append(d0.stripeAcc, make([]sparse.Scratch, k-len(d0.stripeAcc))...)
		d0.stripePicks = append(d0.stripePicks, make([]core.RowPicks, k-len(d0.stripePicks))...)
	}
	rows := len(rowPtr) - 1
	weight := rowPtr[rows] + rows
	d0.stripeLo = growInts(d0.stripeLo, k+1)
	for t := range k {
		target := int(int64(weight) * int64(t) / int64(k))
		d0.stripeLo[t] = sort.Search(rows, func(i int) bool { return rowPtr[i]+i >= target })
	}
	d0.stripeLo[k] = rows
}

// foldStripe merges stripe t's rows of the total, when there are srcs,
// and, for a node-wise finish step, draws them: from the total, or in
// place. It writes only its rows of res and stripe t's scratch.
func (d0 *stageArena) foldStripe(srcs []*sparse.CSR, fin finishStep, t int) {
	lo, hi := d0.stripeLo[t], d0.stripeLo[t+1]
	var m core.RowReader = &d0.view
	rowOf := d0.view.of
	if srcs != nil {
		d0.stripeAcc[t].MergeRowsInto(&d0.res, srcs, lo, hi)
		m, rowOf = &d0.res, nil
	}
	if fin.nodewise() {
		fin.s.(nodewiseFinisher).FinishRows(m, rowOf, lo, hi, fin.size, fin.seed, &d0.stripePicks[t])
	}
}

// stageRows reads P = Q·A in place for a Q whose every row holds one
// unit entry (GraphSAGE's Q, a layer-wise extraction's Q_R): row i of P
// is row of[i] of A, of being Q's columns. It reads A's rows by global
// vertex from the blocks a driver's stages received — the 1.5D row
// fold's A_k blocks, the 1D baseline's p broadcasts — blocks[k] holding
// block row k of A (graph.BlockRowRange over len(blocks) blocks). It
// names A (Matrix), so a GraphSAGE draw takes each row's prefix sums
// from A's RowCDF table when the sampler holds it. A −0 weight of A
// reads as −0, where P holds 0 + 1·w = +0: the node-wise draw treats
// them alike (core.SAGE.FinishRows), and a layer-wise layer keeps A's.
type stageRows struct {
	a      *sparse.CSR   // the matrix the blocks are pieces of; only its size is read
	of     []int         // row i of P is row of[i] of A
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

// rowPtr returns P's row pointers, in buf's storage: what the stripe
// split weighs, and P's size.
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
