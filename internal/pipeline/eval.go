package pipeline

import (
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/graph"
)

// Run0Params returns freshly initialized (untrained) parameters for
// the configuration — the accuracy baseline for sanity checks.
func Run0Params(d *datasets.Dataset, cfg Config) []float64 {
	return cfg.mustDefaults(d).newModel(d).Params()
}

// mustDefaults is withDefaults for the evaluation helpers, which are
// handed a config Run accepted.
func (c Config) mustDefaults(d *datasets.Dataset) Config {
	c, err := c.withDefaults(d)
	if err != nil {
		panic(err)
	}
	return c
}

// Evaluate computes classification accuracy of the trained parameters
// over the given vertex set, sampling their neighborhoods with the
// same sizes used in training. Runs locally — accuracy is a model
// property, not a systems one.
func Evaluate(d *datasets.Dataset, params []float64, cfg Config, vertices []int) float64 {
	cfg = cfg.mustDefaults(d)
	model := cfg.newModel(d)
	model.SetParams(params)

	correct, total := 0, 0
	for _, batch := range graph.Batches(vertices, d.BatchSize) {
		bulk := core.SampleBulk(cfg.sampler, d.Graph.Adj, [][]int{batch}, cfg.sizes, cfg.Seed+555)
		bg := bulk.ExtractBatch(0)
		feats := gnn.GatherFeatures(d.Features, bg.InputVertices())
		act, _ := model.Forward(bg, feats)
		labels := act.SeedLabels(d.Labels)
		acc := dense.Accuracy(act.Logits, labels)
		correct += int(acc*float64(len(labels)) + 0.5)
		total += len(labels)
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// EvaluateFull computes exact (full-batch, non-sampled) accuracy over
// the given vertices: every layer aggregates over the entire graph.
// This is the sampling-free reference that sampled evaluation
// approximates; the gap between the two is the accuracy cost of
// sampling.
func EvaluateFull(d *datasets.Dataset, params []float64, cfg Config, vertices []int) float64 {
	cfg = cfg.mustDefaults(d)
	model := cfg.newModel(d)
	model.SetParams(params)
	bg := core.FullGraphBatch(d.Graph.Adj, len(cfg.sizes))
	act, _ := model.Forward(bg, d.Features)
	pred := dense.Argmax(act.Logits)
	correct := 0
	for _, v := range vertices {
		if pred[v] == d.Labels[v] {
			correct++
		}
	}
	if len(vertices) == 0 {
		return 0
	}
	return float64(correct) / float64(len(vertices))
}
