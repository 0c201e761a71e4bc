// Distributed GraphSAGE: train on a simulated 8-GPU cluster with the
// Graph Replicated algorithm and compare against the Quiver-strategy
// baseline — the Figure 4 experiment in miniature.
//
//	go run ./examples/distributed_sage
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	d := repro.ProductsLike(repro.ProfileFromEnv(repro.Small))
	fmt.Printf("Products-like: %d vertices, %d edges, %d minibatches\n",
		d.Graph.NumVertices(), d.Graph.NumEdges(), d.NumBatches())

	// Our pipeline: bulk sampling (communication-free with the graph
	// replicated), 1.5D feature fetching with replication factor 2,
	// then propagation.
	ours, err := repro.Train(d, repro.TrainConfig{P: 8, C: 2, Epochs: 2, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	e := ours.LastEpoch()
	fmt.Printf("bulk pipeline (p=8, c=2): sampling %.4fs fetch %.4fs prop %.4fs total %.4fs\n",
		e.Sampling, e.FeatureFetch, e.Propagation, e.Total)

	// Quiver strategy: per-minibatch sampling, no fetch locality.
	quiver, err := repro.Train(d, repro.TrainConfig{P: 8, Algorithm: repro.Quiver, Epochs: 2, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	q := quiver.LastEpoch()
	fmt.Printf("quiver baseline (p=8):  sampling %.4fs fetch %.4fs prop %.4fs total %.4fs\n",
		q.Sampling, q.FeatureFetch, q.Propagation, q.Total)
	fmt.Printf("speedup: %.2fx\n", q.Total/e.Total)
}
