package distsample

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// BenchmarkRowFold times one warm GraphSAGE row fold (foldStages: the
// merge of the row's stage products and the layer's draw) of the shape
// the benchmark's partitioned-dense workload folds: protein/Small at
// p=16 c=2, process row 0 (one batch of 64), each layer's frontier as
// serial sampling grows it. The c=2 members contribute q=4 stage
// products each, one per block row of A their column handles; with one
// entry per row of Q, a stage product holds the frontier rows whose
// vertex lies in its block. Compare with -cpu 1,2: the fold stripes
// its rows over GOMAXPROCS workers once the total is large enough.
func BenchmarkRowFold(b *testing.B) {
	const p, c = 16, 2
	d, err := datasets.ByName("protein", datasets.Small)
	if err != nil {
		b.Fatal(err)
	}
	a := d.Graph.Adj
	gridRows, stages := p/c, p/(c*c)
	bulk := core.SampleBulk(core.SAGE{}, a, d.Batches()[:1], d.Fanouts, 1)
	for l, ls := range bulk.Layers {
		cur := ls.Rows
		members := make([]*stageArena, c)
		for j := range members {
			ar := &stageArena{}
			_, prods := ar.stageProds(stages)
			for t, prod := range prods {
				lo, hi := graph.BlockRowRange(a.Rows, gridRows, j*stages+t)
				*prod = blockRows(a, cur.Vertices, lo, hi)
			}
			ar.fin = finishStep{s: core.SAGE{}, cur: cur, size: d.Fanouts[l], seed: 7}
			members[j] = ar
		}
		b.Run(fmt.Sprintf("layer%d-rows%d", l, cur.Len()), func(b *testing.B) {
			// A b.N loop, not b.Loop: at go1.24 b.Loop runs the whole
			// measurement in the benchmark's first call, which -cpu does
			// not yet govern, so a "-cpu 1" row could fold at two workers.
			foldStages(members, members)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				foldStages(members, members)
			}
		})
	}
}

// blockRows is the stage product of a one-entry-per-row Q over A's block
// row [lo, hi): row i is A's row vs[i] when that vertex lies in the
// block, else empty.
func blockRows(a *sparse.CSR, vs []int, lo, hi int) sparse.CSR {
	out := sparse.CSR{Rows: len(vs), Cols: a.Cols, RowPtr: make([]int, len(vs)+1)}
	for i, v := range vs {
		if lo <= v && v < hi {
			cs, ws := a.Row(v)
			out.ColIdx = append(out.ColIdx, cs...)
			out.Val = append(out.Val, ws...)
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}
