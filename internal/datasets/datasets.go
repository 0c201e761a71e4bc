// Package datasets builds the synthetic stand-ins for the paper's
// evaluation datasets (Table 3): OGB Products, HipMCL Protein and OGB
// Papers100M. The real datasets need hundreds of gigabytes and the
// paper's Protein features are random anyway (Section 7.1), so each
// stand-in is an R-MAT graph preserving the original's distinguishing
// shape: Protein-like is by far the densest, Products-like is mid
// density, Papers-like has the most vertices and lowest density (and
// is directed). Those density ratios drive the paper's scaling
// behaviour (Section 8.1.1 attributes Quiver's non-scaling on Protein
// and Products to their average degrees of 241 and 53 vs. Papers' 29).
package datasets

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/dense"
	"repro/internal/graph"
)

// Profile selects a dataset size tier.
type Profile int

const (
	// Tiny is for unit tests: hundreds of vertices.
	Tiny Profile = iota
	// Small is for examples: a few thousand vertices.
	Small
	// Bench is for the experiment harness: tens to hundreds of
	// thousands of vertices, preserving the paper's density ratios.
	Bench
	// Scale is for the scaling experiment: a modest graph with many
	// small batches (512 per epoch), so weak scaling has at least one
	// batch per rank all the way to p=512 while a single simulated
	// epoch stays cheap enough to sweep GPU counts, algorithms,
	// collective schedules and topologies in one run.
	Scale
)

func (p Profile) String() string {
	switch p {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Bench:
		return "bench"
	case Scale:
		return "scale"
	}
	return fmt.Sprintf("profile(%d)", int(p))
}

// Dataset bundles a graph with features, labels, and the training
// configuration of Table 4.
type Dataset struct {
	Name       string
	Graph      *graph.Graph
	Features   *dense.Matrix
	Labels     []int
	NumClasses int

	Train, Val, Test []int

	// BatchSize and Fanouts follow Table 4 (scaled): SAGE trains with
	// a fanout per layer; LayerWidth is the LADIES layer size s.
	BatchSize  int
	Fanouts    []int
	LayerWidth int
}

// NumBatches returns the number of minibatches per epoch.
func (d *Dataset) NumBatches() int {
	return (len(d.Train) + d.BatchSize - 1) / d.BatchSize
}

// Batches splits the training set into minibatches.
func (d *Dataset) Batches() [][]int { return graph.Batches(d.Train, d.BatchSize) }

type preset struct {
	scale      int
	edgeFactor int
	features   int
	batchSize  int
	numBatches int
	fanouts    []int
	layerWidth int
}

// The Bench tier preserves Table 3's ordering of vertex counts
// (Papers ≫ Protein > Products becomes Papers > Protein = Products),
// density (Protein ≫ Products ≫ Papers) and batch counts
// (Papers > Protein > Products), scaled to single-machine simulation.
var presets = map[string]map[Profile]preset{
	"products": {
		Tiny:  {scale: 8, edgeFactor: 8, features: 8, batchSize: 16, numBatches: 4, fanouts: []int{5, 3}, layerWidth: 16},
		Small: {scale: 12, edgeFactor: 27, features: 16, batchSize: 64, numBatches: 8, fanouts: []int{10, 5, 3}, layerWidth: 64},
		Bench: {scale: 15, edgeFactor: 53, features: 32, batchSize: 64, numBatches: 96, fanouts: []int{10, 5, 3}, layerWidth: 64},
		Scale: {scale: 14, edgeFactor: 8, features: 8, batchSize: 16, numBatches: 512, fanouts: []int{5, 3}, layerWidth: 16},
	},
	"protein": {
		Tiny:  {scale: 8, edgeFactor: 16, features: 8, batchSize: 16, numBatches: 4, fanouts: []int{5, 3}, layerWidth: 16},
		Small: {scale: 12, edgeFactor: 60, features: 16, batchSize: 64, numBatches: 8, fanouts: []int{10, 5, 3}, layerWidth: 64},
		Bench: {scale: 15, edgeFactor: 120, features: 32, batchSize: 64, numBatches: 192, fanouts: []int{10, 5, 3}, layerWidth: 64},
		Scale: {scale: 14, edgeFactor: 16, features: 8, batchSize: 16, numBatches: 512, fanouts: []int{5, 3}, layerWidth: 16},
	},
	"papers": {
		Tiny:  {scale: 8, edgeFactor: 4, features: 8, batchSize: 16, numBatches: 4, fanouts: []int{5, 3}, layerWidth: 16},
		Small: {scale: 12, edgeFactor: 15, features: 16, batchSize: 64, numBatches: 8, fanouts: []int{10, 5, 3}, layerWidth: 64},
		Bench: {scale: 17, edgeFactor: 29, features: 32, batchSize: 64, numBatches: 256, fanouts: []int{10, 5, 3}, layerWidth: 64},
		Scale: {scale: 14, edgeFactor: 4, features: 8, batchSize: 16, numBatches: 512, fanouts: []int{5, 3}, layerWidth: 16},
	},
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Dataset{}
)

// ProductsLike returns the OGB-Products analog at the given profile.
func ProductsLike(p Profile) *Dataset { return load("products", p) }

// PapersLike returns the OGB-Papers100M analog at the given profile
// (directed, highest vertex count, lowest density).
func PapersLike(p Profile) *Dataset { return load("papers", p) }

// ByName returns the named dataset ("products", "protein", "papers").
func ByName(name string, p Profile) (*Dataset, error) {
	if _, ok := presets[name]; !ok {
		return nil, fmt.Errorf("datasets: unknown dataset %q", name)
	}
	return load(name, p), nil
}

// Names lists the available perf datasets in presentation order.
func Names() []string { return []string{"products", "protein", "papers"} }

func load(name string, p Profile) *Dataset {
	key := fmt.Sprintf("%s/%s", name, p)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if d, ok := cache[key]; ok {
		return d
	}
	d := build(name, p)
	cache[key] = d
	return d
}

func build(name string, p Profile) *Dataset {
	ps := presets[name][p]
	seed := int64(len(name))*1000 + int64(p)
	g := graph.RMAT(graph.RMATConfig{
		Scale:      ps.scale,
		EdgeFactor: ps.edgeFactor,
		A:          0.57, B: 0.19, C: 0.19,
		Seed: seed,
	})
	// Every vertex must have neighbors to sample.
	g = graph.EnsureMinOutDegree(g, 3, seed+1)
	n := g.NumVertices()

	rng := rand.New(rand.NewSource(seed + 2))
	feats := dense.New(n, ps.features)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	const classes = 47 // OGB-Products class count
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}

	perm := rng.Perm(n)
	trainWant := ps.numBatches * ps.batchSize
	if trainWant > n*6/10 {
		trainWant = n * 6 / 10
	}
	valWant := n / 10
	d := &Dataset{
		Name:       name,
		Graph:      g,
		Features:   feats,
		Labels:     labels,
		NumClasses: classes,
		Train:      perm[:trainWant],
		Val:        perm[trainWant : trainWant+valWant],
		Test:       perm[trainWant+valWant:],
		BatchSize:  ps.batchSize,
		Fanouts:    ps.fanouts,
		LayerWidth: ps.layerWidth,
	}
	return d
}
