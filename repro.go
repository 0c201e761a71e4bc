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
// Multi-GPU clusters are simulated: collectives really move data
// between goroutine ranks while an α–β cost model calibrated to the
// paper's Perlmutter testbed accrues simulated time.
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
// Regenerate a paper figure:
//
//	rows, err := repro.Figure4(os.Stdout, repro.ExperimentOptions{Profile: repro.Small})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// recorded paper-vs-measured results.
package repro

import (
	"fmt"
	"io"
	"os"

	"repro/internal/autotune"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/resilience"
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
	// QuiverConfig drives the Quiver-strategy baseline.
	QuiverConfig = baseline.QuiverConfig
	// ExperimentOptions sizes a harness experiment.
	ExperimentOptions = bench.Options
	// FaultPlan is a deterministic fail-stop injection schedule carried
	// by the cost model (TrainConfig.Faults). Build plans with FailAt /
	// NewFaultPlan / RandomFaultPlan / ParseFaults — the faultseam
	// analyzer confines literal construction to the seam packages.
	FaultPlan = cluster.FaultPlan
	// Failure is one fail-stop event of a plan. Construct entries with
	// FaultFailure.
	Failure = cluster.Failure
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

// GraphSAGE returns the node-wise GraphSAGE sampler (Section 4.1).
func GraphSAGE() Sampler { return core.SAGE{} }

// LADIES returns the layer-wise LADIES sampler (Section 4.2).
func LADIES() Sampler { return core.LADIES{} }

// FastGCN returns the layer-wise FastGCN sampler (degree-weighted
// importance sampling restricted to the aggregated neighborhood).
func FastGCN() Sampler { return core.FastGCN{} }

// NewClusterGCN builds a graph-wise (ClusterGCN-style) sampler: the
// graph is partitioned into numClusters BFS-grown clusters; batches
// are cluster unions sampled as induced subgraphs. This extends the
// framework to the third sampler taxonomy of Section 2.2.
func NewClusterGCN(adj *CSR, numClusters int, seed int64) *core.ClusterGCN {
	return core.NewClusterGCN(adj, numClusters, seed)
}

// CacheStaticDegree is the TrainConfig.CachePolicy that pins the
// highest-degree vertices' features on every rank (the SALIENT++-style
// fetch extension of Section 8.1.2); the zero value caches nothing.
const CacheStaticDegree = cache.StaticDegree

// SaveDataset writes a dataset to the compact binary format.
func SaveDataset(w io.Writer, d *Dataset) error { return graphio.WriteDataset(w, d) }

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(r io.Reader) (*Dataset, error) { return graphio.ReadDataset(r) }

// SampleBulk samples every minibatch in batches at once with the
// matrix-based bulk approach (Algorithm 1 over the stacked matrices of
// Equation 1). fanouts[0] applies at the batch layer.
func SampleBulk(s core.LayerStepper, adj *CSR, batches [][]int, fanouts []int, seed int64) *BulkSample {
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

// FailAt returns a single-failure plan: rank halts when its simulated
// clock reaches at (seconds). Set it on TrainConfig.Faults; Train
// recovers via restart, resuming from the latest epoch-boundary
// checkpoint when TrainConfig.CkptInterval schedules one.
func FailAt(rank int, at float64) *FaultPlan { return resilience.FailAt(rank, at) }

// FaultFailure constructs one fail-stop plan entry (rank, seconds).
func FaultFailure(rank int, at float64) Failure { return resilience.Failure(rank, at) }

// NewFaultPlan builds a plan from explicit entries (see FaultFailure);
// no entries means no injection (nil plan).
func NewFaultPlan(failures ...Failure) *FaultPlan { return resilience.Plan(failures...) }

// RandomFaultPlan draws k failures deterministically from seed: ranks
// uniform over [0, p), fail times uniform over [minAt, maxAt) simulated
// seconds.
func RandomFaultPlan(seed int64, p, k int, minAt, maxAt float64) *FaultPlan {
	return resilience.RandomPlan(seed, p, k, minAt, maxAt)
}

// ParseFaults parses the CLI -faults spelling, a comma-separated list
// of rank@seconds events ("1@0.5,3@1.25"); "" and "default" mean no
// injection (nil plan).
func ParseFaults(s string) (*FaultPlan, error) { return cliutil.ParseFaults(s) }

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

// TrainQuiver runs the Quiver-strategy baseline (per-batch sampling on
// a replicated graph).
func TrainQuiver(d *Dataset, cfg QuiverConfig) (*TrainResult, error) {
	return baseline.RunQuiver(d, cfg)
}

// Figure4 regenerates Figure 4 (Graph Replicated pipeline vs Quiver).
func Figure4(w io.Writer, o ExperimentOptions) ([]bench.Fig4Row, error) { return bench.Fig4(w, o) }

// Figure5 regenerates Figure 5 (Quiver GPU vs UVA sampling).
func Figure5(w io.Writer, o ExperimentOptions) ([]bench.Fig5Row, error) { return bench.Fig5(w, o) }

// Figure6 regenerates Figure 6 (replication vs no replication).
func Figure6(w io.Writer, o ExperimentOptions) ([]bench.Fig6Row, error) { return bench.Fig6(w, o) }

// Figure7 regenerates Figure 7 for "sage" or "ladies" (Graph
// Partitioned sampling breakdowns).
func Figure7(w io.Writer, sampler string, o ExperimentOptions) ([]bench.Fig7Row, error) {
	return bench.Fig7(w, sampler, o)
}

// ResilienceExperiment sweeps the checkpoint interval against an
// injected fail-stop for both training strategies, reporting the
// checkpoint overhead of clean runs beside the recovery cost
// (attempts, resume epoch, discarded simulated work) of faulted ones.
// faults == nil injects a single failure at ~60% of the clean span;
// intervals == nil sweeps {0, 1, 2, 4}.
func ResilienceExperiment(w io.Writer, dataset string, p int, intervals []int, faults *FaultPlan, o ExperimentOptions) ([]bench.ResilienceRow, error) {
	return bench.Resilience(w, dataset, p, intervals, faults, o)
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

// Table2 prints the system capability matrix.
func Table2(w io.Writer) { bench.Table2(w) }

// Table3 prints dataset statistics for the given profile.
func Table3(w io.Writer, p Profile) ([]bench.Table3Row, error) { return bench.Table3(w, p) }

// AccuracyExperiment trains the pipeline on the learnable dataset and
// reports test accuracy (Section 8.1.3 analog). Pass d == nil for the
// default dataset.
func AccuracyExperiment(w io.Writer, d *Dataset, epochs int, seed int64) (*bench.AccuracyResult, error) {
	return bench.Accuracy(w, d, bench.Options{Epochs: epochs, Seed: seed})
}

// SBMDataset generates a learnable stochastic-block-model dataset with
// n vertices, the given class and feature counts, and a deterministic
// seed. Smaller configurations suit tests; LearnableSBM returns the
// experiment-sized default.
func SBMDataset(n, classes, features int, seed int64) *Dataset {
	return datasets.SBM(datasets.SBMConfig{
		N: n, Classes: classes, Features: features,
		IntraDeg: 10, InterDeg: 2, Noise: 0.5,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: seed,
	})
}

// EvaluateFull computes exact (full-batch, non-sampled) accuracy —
// the sampling-free reference.
func EvaluateFull(d *Dataset, params []float64, cfg TrainConfig, vertices []int) float64 {
	return pipeline.EvaluateFull(d, params, cfg, vertices)
}

// AutoTune fills the replication factor c and bulk size k of a config
// using the paper's methodology (Section 7.3): the largest values that
// fit the per-GPU memory budget.
func AutoTune(d *Dataset, cfg TrainConfig) (TrainConfig, error) {
	return autotune.TuneConfig(autotune.DefaultMemoryModel(), d, cfg)
}

// TriangleCount, ConnectedComponents and BFSLevels expose the
// semiring-based graph analytics layer.
func TriangleCount(g *graph.Graph) int64 { return graph.TriangleCount(g) }

// ConnectedComponents labels weakly connected components.
func ConnectedComponents(g *graph.Graph) ([]int, int) { return graph.ConnectedComponents(g) }

// BFSLevels returns hop distances from source (-1 if unreachable).
func BFSLevels(g *graph.Graph, source int) []int { return graph.BFSLevels(g, source) }
