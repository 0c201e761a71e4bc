// Package autotune picks the replication factor c and bulk size k for
// a training run the way the paper does (Section 7.3: "We report
// timings with the highest possible replication factor (c) and bulk
// minibatch count (k) without going out of memory for each GPU
// count"), replacing hand-tuned per-GPU-count tables with a memory
// model.
package autotune

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
)

// MemoryModel estimates per-GPU bytes for a configuration.
type MemoryModel struct {
	// GPUBytes is the per-device memory budget (the paper's A100s have
	// 80 GB; scaled simulations use proportionally less).
	GPUBytes int64
	// Overhead reserves a fraction of the budget for activations,
	// optimizer state and allocator slack.
	Overhead float64
}

// DefaultMemoryModel sizes the budget for the simulated scale: the
// bench-profile datasets are ~1/100 of the paper's, so the default
// budget is 1/100 of an A100.
func DefaultMemoryModel() MemoryModel {
	return MemoryModel{GPUBytes: 800 << 20, Overhead: 0.3}
}

// Estimate returns the modeled per-GPU memory use for a configuration
// of the Graph Replicated pipeline: replicated graph topology, the
// rank's 1.5D feature block, and the bulk sampling working set.
func (m MemoryModel) Estimate(d *datasets.Dataset, p, c, k int) int64 {
	graphBytes := int64(d.Graph.Adj.Bytes()) // replicated on every GPU

	// Feature block: n/(p/c) rows of f float64s.
	blockRows := d.Features.Rows * c / p
	featBytes := int64(blockRows) * int64(d.Features.Cols) * 8

	// Bulk working set: k/p batches, each growing by the fanout
	// product with the self-prefix convention.
	growth := 1
	frontier := 1
	for _, f := range d.Fanouts {
		frontier *= 1 + f
		growth += frontier
	}
	perBatchRows := int64(d.BatchSize) * int64(growth)
	batchesPerGPU := int64((k + p - 1) / p)
	// Each frontier row holds an adjacency row (~fanout entries at 16
	// bytes) plus a feature row fetched for propagation.
	bulkBytes := batchesPerGPU * perBatchRows * int64(16*maxFanout(d.Fanouts)+8*d.Features.Cols)

	return graphBytes + featBytes + bulkBytes
}

func maxFanout(fanouts []int) int {
	m := 1
	for _, f := range fanouts {
		if f > m {
			m = f
		}
	}
	return m
}

// Choice is a tuned configuration.
type Choice struct {
	C, K     int
	Estimate int64
}

// Tune returns the largest replication factor (a divisor of p) and the
// largest bulk size that fit the memory budget, preferring c over k as
// the paper's annotations do. "All minibatches at once" is reported as
// pipeline.KAll, never 0 — 0 is the "unset" sentinel TuneConfig tunes,
// so a tuned config round-trips through TuneConfig unchanged.
func Tune(m MemoryModel, d *datasets.Dataset, p int) (Choice, error) {
	budget := int64(float64(m.GPUBytes) * (1 - m.Overhead))
	total := d.NumBatches()

	best := Choice{C: 0}
	for c := p; c >= 1; c-- {
		if p%c != 0 {
			continue
		}
		// Largest k under budget for this c: try all, then halve.
		for k := total; k >= 1; k = k / 2 {
			est := m.Estimate(d, p, c, k)
			if est <= budget {
				kOut := k
				if k >= total {
					kOut = pipeline.KAll
				}
				if best.C == 0 {
					best = Choice{C: c, K: kOut, Estimate: est}
				}
				break
			}
		}
		if best.C != 0 {
			break
		}
	}
	if best.C == 0 {
		return Choice{}, fmt.Errorf("autotune: no configuration fits %d bytes at p=%d", m.GPUBytes, p)
	}
	return best, nil
}

// TuneCollectives fills the gradient all-reduce schedule when the
// config leaves it unset, mirroring the K/KAll sentinel convention:
// cluster.DefaultAlgorithm (the zero value) means "choose for me",
// while any explicit selection — an explicit cluster.FlatTree included
// — passes through untouched. The tuner picks Hierarchical when the
// run spans nodes (the slow tier then carries node-count, not
// rank-count, messages) and pins FlatTree otherwise, so a tuned config
// round-trips through TuneCollectives unchanged.
func TuneCollectives(model cluster.CostModel, p int, t cluster.Collectives) cluster.Collectives {
	if t.AllReduce != cluster.DefaultAlgorithm {
		return t
	}
	if model.GPUsPerNode == 0 {
		model = cluster.Perlmutter()
	}
	if p > model.GPUsPerNode {
		t.AllReduce = cluster.Hierarchical
	} else {
		t.AllReduce = cluster.FlatTree
	}
	return t
}

// TuneConfig fills C and K of a pipeline config using the memory
// model, and the collective-algorithm table via TuneCollectives,
// leaving explicit values untouched. K's "unset" sentinel is 0 and
// only 0: an explicit "all minibatches" request is pipeline.KAll (any
// negative K), which passes through untuned — K = 0 cannot mean both
// "all" and "choose for me" at once.
func TuneConfig(m MemoryModel, d *datasets.Dataset, cfg pipeline.Config) (pipeline.Config, error) {
	// The schedule is tuned on the model, where the CLIs put -allreduce;
	// a zero model is first given the default platform, which the
	// pipeline would otherwise install over the tuned table.
	if cfg.Model.GPUsPerNode == 0 {
		cfg.Model = cluster.Perlmutter()
	}
	cfg.Model.Collectives = TuneCollectives(cfg.Model, cfg.P, cfg.Model.Collectives)
	if cfg.C > 0 && cfg.K != 0 {
		return cfg, nil
	}
	choice, err := Tune(m, d, cfg.P)
	if err != nil {
		return cfg, err
	}
	if cfg.C <= 0 {
		cfg.C = choice.C
	}
	if cfg.K == 0 {
		cfg.K = choice.K
	}
	return cfg, nil
}
