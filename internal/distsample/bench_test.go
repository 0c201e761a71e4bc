package distsample

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
)

// BenchmarkRowFold times one warm row fold (foldStages) of the shape
// the benchmark's partitioned-dense workload folds: protein/Small at
// p=16 c=2, process row 0 (one batch of 64), each layer's frontier as
// serial GraphSAGE sampling grows it. The c=2 members handle q=4 stages
// each, one per block row of A their column handles. "inplace" is the
// fold spgemm15D runs for GraphSAGE, with the sampler pipeline.Run
// passes, SAGE{CDF: the graph's RowCDF table}: it draws the layer from
// the blocks of A the stages received (stageRows), each row's prefix
// sums looked up in the table. "ladies-p" is the fold of a LADIES P
// over the same frontier: it sums P's one row from the blocks through
// sparse's SpGEMM body, normalizes it in place and draws the layer's
// LayerWidth vertices. Compare with -cpu 1,2: the node-wise draw
// stripes its rows over GOMAXPROCS workers once P is large enough.
func BenchmarkRowFold(b *testing.B) {
	const p, c = 16, 2
	d, err := datasets.ByName("protein", datasets.Small)
	if err != nil {
		b.Fatal(err)
	}
	a, sg := d.Graph.Adj, core.SAGE{CDF: d.Graph.RowCDF()}
	stages := p / (c * c)
	bulk := core.SampleBulk(core.SAGE{}, a, d.Batches()[:1], d.Fanouts, 1)
	for l, ls := range bulk.Layers {
		cur := ls.Rows
		sage, ladies := stageMembers(a, c, stages), stageMembers(a, c, stages)
		beginFold(sage, core.SAGE{}.BuildQ(cur, a.Rows), a, finishStep{s: sg, cur: cur, size: d.Fanouts[l], seed: 7})
		beginFold(ladies, core.LADIES{}.BuildQ(cur, a.Rows), a, finishStep{s: core.LADIES{}, cur: cur, size: d.LayerWidth, seed: 7})
		for _, tc := range []struct {
			name    string
			members []*stageArena
		}{{"inplace", sage}, {"ladies-p", ladies}} {
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
