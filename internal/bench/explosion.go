package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datasets"
)

// ExplosionRow quantifies neighborhood explosion (Section 2.1) at one
// depth: the exact L-hop aggregated neighborhood of a minibatch versus
// the frontiers the samplers actually touch.
type ExplosionRow struct {
	Depth          int
	FullHop        int // exact aggregated neighborhood size
	SAGEFrontier   int // node-wise sampled frontier
	LADIESFrontier int // layer-wise sampled frontier
}

// Explosion reproduces the motivation measurement behind minibatch
// sampling: training one batch of an L-layer GNN exactly touches its
// entire L-hop neighborhood — often a large fraction of the graph —
// while node-wise sampling caps growth at a fanout product and
// layer-wise sampling caps every layer at s.
func Explosion(w io.Writer, dataset string, o Options) ([]ExplosionRow, error) {
	o = o.withDefaults()
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	batch := d.Batches()[0]
	depth := len(d.Fanouts)

	// Exact L-hop neighborhood by breadth-first union.
	full := make([]int, depth+1)
	seen := map[int]struct{}{}
	frontier := append([]int(nil), batch...)
	for _, v := range frontier {
		seen[v] = struct{}{}
	}
	full[0] = len(seen)
	for l := 1; l <= depth; l++ {
		var next []int
		for _, v := range frontier {
			cols, _ := d.Graph.Adj.Row(v)
			for _, u := range cols {
				if _, ok := seen[u]; !ok {
					seen[u] = struct{}{}
					next = append(next, u)
				}
			}
		}
		full[l] = len(seen)
		frontier = next
	}

	frontiers := func(s core.Sampler) *core.BulkSample {
		return core.SampleBulk(s, d.Graph.Adj, [][]int{batch}, core.LayerSizes(s, d.Fanouts, d.LayerWidth, depth), o.Seed)
	}
	sage, ladies := frontiers(core.SAGE{}), frontiers(core.LADIES{})

	fmt.Fprintf(w, "Neighborhood explosion (Section 2.1), dataset=%s batch=%d vertices (graph has %d)\n",
		dataset, len(batch), d.Graph.NumVertices())
	fmt.Fprintf(w, "%5s %12s %14s %16s\n", "depth", "exact L-hop", "SAGE frontier", "LADIES frontier")
	rows := make([]ExplosionRow, depth+1)
	rows[0] = ExplosionRow{Depth: 0, FullHop: full[0], SAGEFrontier: len(batch), LADIESFrontier: len(batch)}
	fmt.Fprintf(w, "%5d %12d %14d %16d\n", 0, full[0], len(batch), len(batch))
	for l := 1; l <= depth; l++ {
		rows[l] = ExplosionRow{
			Depth:          l,
			FullHop:        full[l],
			SAGEFrontier:   sage.Layers[l-1].Cols.Len(),
			LADIESFrontier: ladies.Layers[l-1].Cols.Len(),
		}
		fmt.Fprintf(w, "%5d %12d %14d %16d\n", l, rows[l].FullHop, rows[l].SAGEFrontier, rows[l].LADIESFrontier)
	}
	return rows, nil
}
