package distsample

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// BenchmarkRowFold times one warm GraphSAGE row fold (foldStages) of
// the shape the benchmark's partitioned-dense workload folds:
// protein/Small at p=16 c=2, process row 0 (one batch of 64), each
// layer's frontier as serial sampling grows it. The c=2 members handle
// q=4 stages each, one per block row of A their column handles.
// "inplace" is the fold spgemm15D runs for GraphSAGE: it draws the
// layer from the blocks of A the stages received (stageRows). "merge"
// is the fold over stage products, which a Q with several entries per
// row still takes: with one entry per row of Q, a stage product holds
// the frontier rows whose vertex lies in its block, and the fold merges
// them into the total before drawing. Compare with -cpu 1,2: the fold
// stripes its rows over GOMAXPROCS workers once P is large enough.
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
		q := core.SAGE{}.BuildQ(cur, a.Rows)
		merging := make([]*stageArena, c)
		inPlace := make([]*stageArena, c)
		for j := range c {
			merging[j], inPlace[j] = &stageArena{}, &stageArena{}
			_, prods := merging[j].stageProds(stages)
			inPlace[j].stageProds(stages)
			for t, prod := range prods {
				lo, hi := graph.BlockRowRange(a.Rows, gridRows, j*stages+t)
				*prod = blockRows(a, cur.Vertices, lo, hi)
				inPlace[j].blocks[t] = sparse.SliceRows(a, lo, hi)
			}
			fin := finishStep{s: core.SAGE{}, cur: cur, size: d.Fanouts[l], seed: 7}
			merging[j].fin, inPlace[j].fin, inPlace[j].q = fin, fin, q
		}
		for _, tc := range []struct {
			name    string
			members []*stageArena
		}{{"merge", merging}, {"inplace", inPlace}} {
			b.Run(fmt.Sprintf("layer%d-rows%d/%s", l, cur.Len(), tc.name), func(b *testing.B) {
				// A b.N loop, not b.Loop: at go1.24 b.Loop runs the whole
				// measurement in the benchmark's first call, which -cpu does
				// not yet govern, so a "-cpu 1" row could fold at two workers.
				foldStages(tc.members, tc.members)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					foldStages(tc.members, tc.members)
				}
			})
		}
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
