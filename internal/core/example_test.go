package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datasets"
)

// ExampleNewClusterGCN demonstrates graph-wise sampling: minibatches
// are cluster unions and samples are induced subgraphs.
func ExampleNewClusterGCN() {
	d := datasets.ProductsLike(datasets.Tiny)
	cg := core.NewClusterGCN(d.Graph.Adj, 4, 1)
	batches := cg.Batches(2, 1)
	bulk := core.SampleBulk(cg, d.Graph.Adj, batches, []int{0}, 1)
	ls := bulk.Layers[0]
	fmt.Println("square per-batch blocks:", ls.Adj.Rows == ls.Adj.Cols)
	// Output:
	// square per-batch blocks: true
}
