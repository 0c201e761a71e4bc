// Package repro is a pure-Go reproduction of "Distributed Matrix-Based
// Sampling for Graph Neural Network Training" (Tripathy, Yelick, Buluç
// — MLSys 2024, arXiv:2311.02909).
//
// The library expresses GNN minibatch sampling as sparse matrix
// algebra and samples many minibatches in bulk (Algorithm 1 /
// Equation 1 of the paper), distributes the sampling step with either
// a Graph Replicated (communication-free) or Graph Partitioned
// (1.5D, sparsity-aware SpGEMM) algorithm, and wraps both in an
// end-to-end training pipeline with all-to-allv feature fetching.
// Multi-GPU clusters are simulated: ranks are tasks of a discrete-event
// scheduler, collectives really move data between them, and an α–β
// cost model calibrated to the paper's Perlmutter testbed accrues
// simulated time.
//
// # Quick start
//
//	d := repro.ProductsLike(repro.Small)
//	bulk := repro.SampleBulk(repro.GraphSAGE(), d.Graph.Adj, d.Batches(), d.Fanouts, 42)
//	fmt.Println(bulk.Layers[0].Adj) // stacked sampled adjacency
//
// Run a simulated distributed training epoch:
//
//	res, err := repro.Train(d, repro.TrainConfig{P: 8, C: 2})
//
// The paper's figures and tables are regenerated by cmd/gnnbench. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for
// recorded paper-vs-measured results.
package repro

import (
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/sparse"
)

// Re-exported core types. The aliases expose the full method sets of
// the internal implementations through a stable public surface.
type (
	// CSR is a compressed sparse row matrix, the storage format for
	// adjacency, sampler and probability matrices.
	CSR = sparse.CSR
	// Sampler is a sampling algorithm of the matrix-based abstraction
	// (Algorithm 1): a row of core.Samplers. Implementations: GraphSAGE,
	// LADIES, FastGCN.
	Sampler = core.Sampler
	// BulkSample is the output of bulk-sampling k minibatches.
	BulkSample = core.BulkSample
	// Dataset bundles a graph with features, labels and training
	// configuration.
	Dataset = datasets.Dataset
	// Profile selects dataset size (Tiny / Small).
	Profile = datasets.Profile
	// CostModel holds the α–β link and device-throughput parameters of
	// the simulated cluster.
	CostModel = cluster.CostModel
	// TrainConfig drives a simulated distributed training run.
	TrainConfig = pipeline.Config
	// TrainResult is the outcome of a training run, including the
	// Figure 4 phase breakdown per epoch.
	TrainResult = pipeline.Result
)

// Dataset size profiles.
const (
	Tiny  = datasets.Tiny
	Small = datasets.Small
)

// GraphPartitioned selects, as TrainConfig.Algorithm, the algorithm
// that partitions the adjacency matrix 1.5D and runs the sparsity-aware
// SpGEMM of Algorithm 2 (Section 5.2). The zero value replicates the
// matrix on every device, and sampling is communication-free (Section
// 5.1).
const GraphPartitioned = pipeline.GraphPartitioned

// Quiver selects, as TrainConfig.Algorithm, the Quiver-strategy
// baseline the paper compares against (Section 7.3): per-minibatch
// sampling on a replicated graph and a feature fetch across all p ranks.
const Quiver = pipeline.Quiver

// GraphSAGE returns the node-wise GraphSAGE sampler (Section 4.1).
func GraphSAGE() Sampler { return core.SAGE{} }

// LADIES returns the layer-wise LADIES sampler (Section 4.2).
func LADIES() Sampler { return core.LADIES{} }

// SampleBulk samples every minibatch in batches at once with the
// matrix-based bulk approach (Algorithm 1 over the stacked matrices of
// Equation 1). fanouts[0] applies at the batch layer.
func SampleBulk(s Sampler, adj *CSR, batches [][]int, fanouts []int, seed int64) *BulkSample {
	return core.SampleBulk(s, adj, batches, fanouts, seed)
}

// ProductsLike returns the OGB-Products analog dataset.
func ProductsLike(p Profile) *Dataset { return datasets.ProductsLike(p) }

// PapersLike returns the OGB-Papers100M analog dataset (largest,
// sparsest, directed).
func PapersLike(p Profile) *Dataset { return datasets.PapersLike(p) }

// LearnableSBM returns the stochastic-block-model dataset used by the
// accuracy experiment (Section 8.1.3 analog).
func LearnableSBM() *Dataset { return datasets.DefaultSBM() }

// Perlmutter returns the cost model calibrated to the paper's testbed
// (Section 7.2): 4x A100 per node, NVLink 3.0, Slingshot-11.
func Perlmutter() CostModel { return cluster.Perlmutter() }

// Train runs simulated distributed minibatch training (Figure 3
// pipeline) and returns per-epoch phase breakdowns and the trained
// parameters. The epoch loop runs on the staged-execution engine:
// set TrainConfig.Overlap to software-pipeline bulk sampling and
// feature fetching against propagation — for the Graph Replicated and,
// via stream-safe communicator clones, the 1.5D Graph Partitioned
// algorithm alike (training outcomes are bit-identical to the default
// bulk-synchronous schedule; only the simulated schedule changes).
func Train(d *Dataset, cfg TrainConfig) (*TrainResult, error) {
	return pipeline.Run(d, cfg)
}

// Evaluate computes test accuracy of trained parameters on the given
// vertices.
func Evaluate(d *Dataset, params []float64, cfg TrainConfig, vertices []int) float64 {
	return pipeline.Evaluate(d, params, cfg, vertices)
}

// ProfileFromEnv returns the dataset profile named by the
// GNN_EXAMPLE_PROFILE environment variable ("tiny", "small", "scale",
// "bench"), or def when the variable is unset. The examples/*
// walkthroughs size themselves through it so the CI smoke can run
// every walkthrough at the tiny profile; an unknown value panics
// (misconfigured CI should fail loudly, not silently run a bigger
// profile).
func ProfileFromEnv(def Profile) Profile {
	s := os.Getenv("GNN_EXAMPLE_PROFILE")
	if s == "" {
		return def
	}
	p, err := cliutil.ParseProfile(s)
	if err != nil {
		panic(fmt.Sprintf("repro: GNN_EXAMPLE_PROFILE: %v", err))
	}
	return p
}
