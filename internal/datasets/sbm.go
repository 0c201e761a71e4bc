package datasets

import (
	"math/rand"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// SBMConfig parameterizes a stochastic-block-model dataset whose
// labels are learnable from features plus graph structure. It backs
// the accuracy experiment (Section 8.1.3): the paper verifies that the
// bulk-sampling optimizations do not change model accuracy, which
// requires a dataset a GNN can actually learn.
type SBMConfig struct {
	N          int
	Classes    int
	Features   int
	IntraDeg   float64 // expected within-community out-degree
	InterDeg   float64 // expected cross-community out-degree
	Noise      float64 // feature noise stddev around the class centroid
	BatchSize  int
	Fanouts    []int
	LayerWidth int
	Seed       int64
}

// SBM generates a stochastic block model graph with class-centroid
// features: vertex v of class c has features centroid_c + Noise·N(0,1)
// and preferentially connects within its class, so both the feature
// and structure channels carry label signal.
func SBM(cfg SBMConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n, c := cfg.N, cfg.Classes
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i * c / n // contiguous communities
	}

	edges := int(float64(n) * (cfg.IntraDeg + cfg.InterDeg))
	coo := sparse.NewCOO(n, n, edges+n)
	seen := graph.NewEdgeSet(edges)
	addEdge := func(u, v int) {
		if u != v && seen.Add(u, v) {
			coo.Add(u, v, 1)
		}
	}
	commSize := (n + c - 1) / c
	for u := 0; u < n; u++ {
		base := labels[u] * n / c
		intra := int(cfg.IntraDeg)
		for t := 0; t < intra; t++ {
			addEdge(u, base+rng.Intn(min(commSize, n-base)))
		}
		inter := int(cfg.InterDeg)
		for t := 0; t < inter; t++ {
			addEdge(u, rng.Intn(n))
		}
	}
	g := graph.EnsureMinOutDegree(graph.New(coo.ToCSR()), 3, cfg.Seed+1)

	centroids := dense.New(c, cfg.Features)
	for i := range centroids.Data {
		centroids.Data[i] = rng.NormFloat64()
	}
	feats := dense.New(n, cfg.Features)
	for v := 0; v < n; v++ {
		cen := centroids.RowView(labels[v])
		dst := feats.RowView(v)
		for j := range dst {
			dst[j] = cen[j] + cfg.Noise*rng.NormFloat64()
		}
	}

	perm := rng.Perm(n)
	nTrain, nVal := n*6/10, n*2/10
	return &Dataset{
		Name:       "sbm",
		Graph:      g,
		Features:   feats,
		Labels:     labels,
		NumClasses: c,
		Train:      perm[:nTrain],
		Val:        perm[nTrain : nTrain+nVal],
		Test:       perm[nTrain+nVal:],
		BatchSize:  cfg.BatchSize,
		Fanouts:    cfg.Fanouts,
		LayerWidth: cfg.LayerWidth,
	}
}

// DefaultSBM returns the accuracy-experiment dataset: 16 communities,
// moderately noisy features, 3-layer fanouts.
func DefaultSBM() *Dataset {
	return SBM(SBMConfig{
		N:          4096,
		Classes:    16,
		Features:   16,
		IntraDeg:   12,
		InterDeg:   3,
		Noise:      0.6,
		BatchSize:  64,
		Fanouts:    []int{10, 5, 3},
		LayerWidth: 64,
		Seed:       99,
	})
}
