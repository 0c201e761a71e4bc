package core_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distsample"
	"repro/internal/graph"
)

// Every driver keeps A's edge values: entry (i, j) of a layer-wise
// sampled adjacency is A(Rows[i], Cols[j]), which on this binary graph
// is 1. The test sits outside package core to reach the 1.5D driver.
func TestLADIESUnweightedKeepsBinaryValues(t *testing.T) {
	g := graph.EnsureMinOutDegree(graph.ErdosRenyi(80, 10, 72), 3, 73)
	a := g.Adj
	type input struct {
		name    string
		samples []*core.BulkSample
	}
	inputs := []input{{"LADIES bulk, one batch",
		[]*core.BulkSample{core.SampleBulk(core.LADIES{}, a, [][]int{{1, 2, 3}}, []int{5}, 17)}}}

	batches := [][]int{{1, 2, 3}, {10, 11}, {20, 21, 22}, {30, 31}}
	const p, c = 4, 2
	for _, entry := range core.Samplers {
		s := entry.New(g)
		if !s.LayerWise() {
			continue
		}
		sizes := core.LayerSizes(s, nil, 5, 2)
		inputs = append(inputs, input{entry.Key + " bulk",
			[]*core.BulkSample{core.SampleBulk(s, a, batches, sizes, 17)}})

		cl := cluster.New(p, cluster.Perlmutter())
		grid := cluster.NewGrid(cl, p, c)
		set := distsample.NewPartitionedSet(grid, a, true)
		parts := make([]*core.BulkSample, p)
		if _, err := cl.Run(func(r *cluster.Rank) error {
			parts[r.ID] = distsample.SamplePartitioned(r, set[r.ID], s, distsample.LocalBatches(grid, r.ID, batches), sizes, 17)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{entry.Key + " 1.5D p=4 c=2", parts})
	}

	for _, in := range inputs {
		for _, bs := range in.samples {
			for l, ls := range bs.Layers {
				for i := 0; i < ls.Adj.Rows; i++ {
					cols, vals := ls.Adj.Row(i)
					for k, j := range cols {
						u, w := ls.Rows.Vertices[i], ls.Cols.Vertices[j]
						if vals[k] != 1 || vals[k] != a.At(u, w) {
							t.Fatalf("%s layer %d: edge (%d, %d) has value %v, A has %v",
								in.name, l, u, w, vals[k], a.At(u, w))
						}
					}
				}
			}
		}
	}
}
