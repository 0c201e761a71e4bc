// Distributed LADIES on a partitioned graph: the paper's Section 5.2
// Graph Partitioned algorithm — to the authors' knowledge the first
// fully distributed LADIES — run on a simulated 8-GPU, c=2 grid, with
// the phase breakdown of Figure 7 and the serial CPU reference.
//
//	go run ./examples/ladies_partitioned
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/distsample"
)

func main() {
	d := repro.PapersLike(repro.ProfileFromEnv(repro.Small))
	fmt.Printf("Papers-like: %d vertices, %d edges, %d minibatches\n",
		d.Graph.NumVertices(), d.Graph.NumEdges(), d.NumBatches())

	// Graph Partitioned LADIES sampling: the adjacency matrix is 1.5D
	// partitioned over a 4x2 grid, P = QA runs as a sparsity-aware
	// staged SpGEMM (Algorithm 2), and extraction splits across
	// process rows.
	res, err := bench.RunPartitionedSampling(d, repro.LADIES(), []int{d.LayerWidth}, 8, 2, true, bench.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed LADIES (p=8, c=2):\n")
	fmt.Printf("  probability: %.4fs (comm %.4fs)\n",
		res.Phase(distsample.PhaseProbability), res.PhaseComm(distsample.PhaseProbability))
	fmt.Printf("  sampling:    %.4fs\n", res.Phase(distsample.PhaseSampling))
	fmt.Printf("  extraction:  %.4fs (comm %.4fs)\n",
		res.Phase(distsample.PhaseExtraction), res.PhaseComm(distsample.PhaseExtraction))

	// The serial CPU reference the distributed runs must beat
	// (Section 8.2.2).
	ref, err := baseline.CPULadiesReference(d, 1, 0, 11, repro.Perlmutter())
	if err != nil {
		log.Fatal(err)
	}
	total := res.Phase(distsample.PhaseProbability) +
		res.Phase(distsample.PhaseSampling) + res.Phase(distsample.PhaseExtraction)
	fmt.Printf("CPU reference: %.4fs — distributed is %.1fx faster\n", ref, ref/total)

	// End-to-end training with partitioned LADIES also works:
	train, err := repro.Train(d, repro.TrainConfig{
		P: 8, C: 2, Epochs: 1, Seed: 11,
		Sampler:   "ladies",
		Algorithm: repro.GraphPartitioned, SparsityAware: true,
		MaxBatches: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	e := train.LastEpoch()
	fmt.Printf("end-to-end epoch (extrapolated): sampling %.4fs fetch %.4fs prop %.4fs\n",
		e.Sampling, e.FeatureFetch, e.Propagation)

}
