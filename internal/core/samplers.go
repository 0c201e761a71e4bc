package core

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// Sampler is a sampling algorithm as the paper defines one: a matrix
// construction that specialises Algorithm 1. BuildQ and Norm are the
// algorithm's two sampler-dependent lines, and LayerWise says which of
// its two SAMPLE/EXTRACT shapes follows them, so a driver that computes
// P = Q·A its own way (internal/distsample's 1.5D SpGEMM) runs any
// sampler through these three methods alone. Step is the whole layer
// over a matrix held in one piece.
type Sampler interface {
	LayerStepper
	Name() string
	// LayerWise reports the family. A node-wise sampler has one row of Q
	// per frontier vertex, draws s neighbours per row and completes a
	// layer from P with a FinishStep(p, cur, s, seed) method that only
	// reads P (SAGE.FinishStep; the package FinishStep, which normalizes
	// P in place, is its reference); a layer-wise one has one row per batch,
	// draws s vertices per batch (SampleLayerwise) and extracts the
	// frontier's rows and the sampled columns of A (ExtractLayerwise).
	LayerWise() bool
	// BuildQ constructs the stacked sampler matrix Q^l over n vertices.
	BuildQ(cur *Frontier, n int) *sparse.CSR
	// Norm turns the rows of P = Q·A into sampling distributions, in
	// place.
	Norm(p *sparse.CSR)
}

// SamplerEntry is one row of Samplers.
type SamplerEntry struct {
	Key string // the pipeline.Config.Sampler and trainer -sampler value
	Doc string // one line for trainer -h
	// New returns the sampler for g, holding whatever it needs of the
	// whole graph: a partitioned driver hands it blocks of A only.
	New func(g *graph.Graph) Sampler
}

// Samplers is the one list of sampling algorithms; the first entry is
// the default. The CLI vocabulary and help, Config validation, the
// verify experiment and the distributed-equals-serial tests all derive
// from it: adding a sampler is one file in this package and one row.
var Samplers = []SamplerEntry{
	{Key: "sage", Doc: "GraphSAGE: node-wise, s uniform neighbours per frontier vertex",
		New: func(g *graph.Graph) Sampler { return SAGE{CDF: g.RowCDF()} }},
	{Key: "ladies", Doc: "LADIES: layer-wise, s vertices per batch with p_v ∝ (edges into the layer)²",
		New: func(*graph.Graph) Sampler { return LADIES{} }},
	{Key: "fastgcn", Doc: "FastGCN: layer-wise, s vertices per batch with p_v ∝ degree²",
		New: func(g *graph.Graph) Sampler { return FastGCN{Degrees: g.Degrees()} }},
}

// SamplerByName returns the entry with the given key.
func SamplerByName(key string) (SamplerEntry, error) {
	keys := make([]string, len(Samplers))
	for i, e := range Samplers {
		if e.Key == key {
			return e, nil
		}
		keys[i] = e.Key
	}
	return SamplerEntry{}, fmt.Errorf("core: unknown sampler %q (want one of: %s)", key, strings.Join(keys, ", "))
}

// LayerSizes returns the per-layer sample sizes s draws over the given
// number of layers, batch layer first: a node-wise sampler's fanouts
// (repeated cyclically past their end), a layer-wise sampler's width at
// every layer. layers <= 0 selects the family's depth in the paper's
// presets: every fanout, or one layer-wise layer (Table 4).
func LayerSizes(s Sampler, fanouts []int, width, layers int) []int {
	if layers <= 0 {
		layers = 1
		if !s.LayerWise() {
			layers = len(fanouts)
		}
	}
	sizes := make([]int, layers)
	for i := range sizes {
		sizes[i] = width
		if !s.LayerWise() {
			sizes[i] = fanouts[i%len(fanouts)]
		}
	}
	return sizes
}
