package gnn

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Aggregator selects how a convolution combines neighbor messages.
// The paper's pipeline trains PyG's SAGE (mean aggregation); the GCN
// variant is provided because the matrix sampling framework is
// model-agnostic ("our methods support any model", Section 8.1.3).
type Aggregator int

const (
	// MeanAgg divides each row of the sampled adjacency by its degree
	// (GraphSAGE mean aggregation).
	MeanAgg Aggregator = iota
	// GCNAgg applies the symmetric normalization D^-1/2 (A+I) D^-1/2
	// restricted to the sampled bipartite block (Kipf & Welling).
	GCNAgg
	// SumAgg leaves edge weights untouched (sum aggregation).
	SumAgg
)

func (a Aggregator) String() string {
	switch a {
	case MeanAgg:
		return "mean"
	case GCNAgg:
		return "gcn"
	case SumAgg:
		return "sum"
	}
	return fmt.Sprintf("aggregator(%d)", int(a))
}

// normalizeAdj returns the aggregation operator for a sampled
// bipartite adjacency block (rows: layer-l frontier, cols: layer-(l-1)
// frontier). The operator shares adj's structure; its values are adj's
// own for SumAgg and workspace memory otherwise, so adj is never
// written.
func normalizeAdj(adj *sparse.CSR, agg Aggregator, ws *workspace) sparse.CSR {
	out := *adj
	if agg == SumAgg {
		return out
	}
	out.Val = ws.take(len(adj.Val))
	copy(out.Val, adj.Val)
	switch agg {
	case MeanAgg:
		out.NormalizeRows()
	case GCNAgg:
		// Bipartite symmetric scaling: entry (i, j) becomes
		// 1 / sqrt((1+deg_out(i)) * (1+deg_in(j))). The +1 terms play
		// the role of the self loop in D^-1/2 (A+I) D^-1/2.
		colDeg := ws.take(out.Cols)
		clear(colDeg)
		for _, c := range out.ColIdx[:out.NNZ()] {
			colDeg[c]++
		}
		for i := 0; i < out.Rows; i++ {
			lo, hi := out.RowPtr[i], out.RowPtr[i+1]
			rowDeg := float64(hi - lo)
			for k := lo; k < hi; k++ {
				out.Val[k] /= math.Sqrt((1 + rowDeg) * (1 + colDeg[out.ColIdx[k]]))
			}
		}
	default:
		panic(fmt.Sprintf("gnn: unknown aggregator %d", agg))
	}
	return out
}
