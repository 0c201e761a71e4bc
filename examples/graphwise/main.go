// Graph-wise sampling (ClusterGCN) in the matrix framework — the third
// sampler taxonomy of Section 2.2, which the paper leaves as future
// work. Vertices are pre-clustered; a minibatch is a union of clusters
// and its sample is the induced subgraph A_S = Q_R·A·Q_C. The frontier
// never grows, so a deep GNN trains on a constant-size subgraph.
//
//	go run ./examples/graphwise
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/gnn"
)

func main() {
	d := datasets.DefaultSBM()
	fmt.Printf("SBM: %d vertices, %d classes\n", d.Graph.NumVertices(), d.NumClasses)

	// Cluster the graph and form cluster-union minibatches.
	cg := core.NewClusterGCN(d.Graph.Adj, 32, 1)
	batches := cg.Batches(8, 1)
	fmt.Printf("32 clusters -> %d minibatches (first has %d vertices)\n",
		len(batches), len(batches[0]))

	// One bulk call extracts every batch's induced subgraph; the
	// two-layer GNN reuses the same adjacency at each depth.
	bulk := repro.SampleBulk(cg, d.Graph.Adj, batches, []int{0, 0}, 1)
	fmt.Printf("induced bulk adjacency: %d x %d, %d edges kept\n",
		bulk.Layers[0].Adj.Rows, bulk.Layers[0].Adj.Cols, bulk.Layers[0].Adj.NNZ())

	// Train on the induced subgraphs.
	model := gnn.NewModel(gnn.Config{
		In: d.Features.Cols, Hidden: 32, Classes: d.NumClasses, Layers: 2, Seed: 2,
	})
	opt := dense.NewAdam(0.02)
	for epoch := 0; epoch < 6; epoch++ {
		epochBatches := cg.Batches(8, int64(epoch))
		eb := repro.SampleBulk(cg, d.Graph.Adj, epochBatches, []int{0, 0}, int64(epoch))
		total, n := 0.0, 0
		for i := range epochBatches {
			bg := eb.ExtractBatch(i)
			feats := gnn.GatherFeatures(d.Features, bg.InputVertices())
			act, _ := model.Forward(bg, feats)
			loss, dLogits := gnn.Loss(act, act.SeedLabels(d.Labels))
			grads, _ := model.Backward(act, dLogits)
			opt.Step(model.Params(), grads)
			total += loss
			n++
		}
		fmt.Printf("epoch %d: loss %.4f\n", epoch, total/float64(n))
	}

	// Evaluate on the test split using full-cluster inference.
	correct, count := 0, 0
	testBatches := cg.Batches(8, 99)
	tb := repro.SampleBulk(cg, d.Graph.Adj, testBatches, []int{0, 0}, 99)
	inTest := map[int]bool{}
	for _, v := range d.Test {
		inTest[v] = true
	}
	for i := range testBatches {
		bg := tb.ExtractBatch(i)
		feats := gnn.GatherFeatures(d.Features, bg.InputVertices())
		act, _ := model.Forward(bg, feats)
		pred := dense.Argmax(act.Logits)
		for j, v := range bg.Seeds {
			if inTest[v] {
				count++
				if pred[j] == d.Labels[v] {
					correct++
				}
			}
		}
	}
	if count == 0 {
		log.Fatal("no test vertices covered")
	}
	fmt.Printf("graph-wise test accuracy: %.3f\n", float64(correct)/float64(count))
}
