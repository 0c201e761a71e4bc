package repro_test

import (
	"fmt"

	"repro"
)

// ExampleSampleBulk demonstrates matrix-based bulk sampling: every
// minibatch of an epoch sampled in one call.
func ExampleSampleBulk() {
	d := repro.ProductsLike(repro.Tiny)
	bulk := repro.SampleBulk(repro.GraphSAGE(), d.Graph.Adj, d.Batches(), d.Fanouts, 42)
	fmt.Println("batches:", len(bulk.Batches))
	fmt.Println("layers:", len(bulk.Layers))
	fmt.Println("deepest frontier rows:", bulk.Layers[len(bulk.Layers)-1].Cols.Len() > 0)
	// Output:
	// batches: 4
	// layers: 2
	// deepest frontier rows: true
}

// ExampleBulkSample_ExtractBatch pulls one minibatch's computation
// graph out of a bulk sample.
func ExampleBulkSample_ExtractBatch() {
	d := repro.ProductsLike(repro.Tiny)
	bulk := repro.SampleBulk(repro.GraphSAGE(), d.Graph.Adj, d.Batches(), d.Fanouts, 42)
	bg := bulk.ExtractBatch(0)
	fmt.Println("seeds:", len(bg.Seeds))
	fmt.Println("depth:", bg.Depth())
	// Output:
	// seeds: 16
	// depth: 2
}

// ExampleTrain runs a small simulated distributed training job.
func ExampleTrain() {
	d := repro.ProductsLike(repro.Tiny)
	res, err := repro.Train(d, repro.TrainConfig{P: 2, C: 1, Epochs: 2, Seed: 1, MaxBatches: 4})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	e := res.LastEpoch()
	fmt.Println("phases recorded:", e.Sampling > 0 && e.FeatureFetch > 0 && e.Propagation > 0)
	// Output:
	// phases recorded: true
}

// ExampleLADIES shows layer-wise sampling probabilities in action: the
// sampled set per batch is capped at the layer width.
func ExampleLADIES() {
	d := repro.ProductsLike(repro.Tiny)
	bulk := repro.SampleBulk(repro.LADIES(), d.Graph.Adj, d.Batches(), []int{d.LayerWidth}, 7)
	batchZero := bulk.Layers[0].Cols.Batch(0)
	fmt.Println("frontier within budget:", len(batchZero) <= d.BatchSize+d.LayerWidth)
	// Output:
	// frontier within budget: true
}
