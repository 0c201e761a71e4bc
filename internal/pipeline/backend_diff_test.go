package pipeline

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
)

// TestBackendDifferential drives the goroutine and discrete-event
// backends through 1000 randomized tiny configurations and requires
// bit-identical Results from each pair. The goldens pin a handful of
// hand-picked configs; this sweep covers the config-space corners no
// one thought to pin — uneven bulk sizes, overlapped schedules, every
// collective table, both algorithms.
//
// Topology stays nil throughout: contended runs resolve the ledger in
// arrival order, which is deterministic per backend but deliberately
// unspecified across backends (see contention.go), so bit-identity is
// only promised for the pure α–β model.
func TestBackendDifferential(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 50
	}
	// GNN_DIFFERENTIAL_TRIALS overrides the sweep size: CI's race job
	// runs a reduced-trial sweep under -race, where each trial costs
	// roughly an order of magnitude more.
	if s := os.Getenv("GNN_DIFFERENTIAL_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad GNN_DIFFERENTIAL_TRIALS %q: want a positive integer", s)
		}
		trials = n
	}
	d := datasets.SBM(datasets.SBMConfig{
		N: 128, Classes: 4, Features: 4,
		IntraDeg: 6, InterDeg: 2, Noise: 0.5,
		BatchSize: 16, Fanouts: []int{3, 2}, LayerWidth: 8, Seed: 11,
	})
	tables := []cluster.Collectives{
		{},
		{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise},
		{AllReduce: cluster.Hierarchical},
	}
	rng := rand.New(rand.NewSource(20240817))
	run := func(cfg Config, be cluster.Backend) *Result {
		t.Helper()
		cfg.Backend = be
		res, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("%+v backend=%v: %v", cfg, be, err)
		}
		return res
	}
	for trial := 0; trial < trials; trial++ {
		ps := []int{2, 4, 8}
		cfg := Config{
			P:          ps[rng.Intn(len(ps))],
			Epochs:     1,
			Seed:       rng.Int63n(1 << 20),
			MaxBatches: 1 + rng.Intn(4),
			K:          rng.Intn(5), // 0 = KAll
			Model:      onModel(tables[rng.Intn(len(tables))]),
		}
		// C must divide P; pick among P's divisors.
		divs := []int{1}
		for c := 2; c <= cfg.P; c++ {
			if cfg.P%c == 0 {
				divs = append(divs, c)
			}
		}
		cfg.C = divs[rng.Intn(len(divs))]
		// The partitioned algorithm needs c² | p; fall back to the
		// replicated one (with a chance of the overlapped schedule)
		// when the drawn grid doesn't qualify.
		if rng.Intn(2) == 1 && cfg.C > 1 && cfg.P%(cfg.C*cfg.C) == 0 {
			cfg.Algorithm = GraphPartitioned
			cfg.SparsityAware = rng.Intn(2) == 1
		} else {
			cfg.Overlap = rng.Intn(2) == 1
		}
		g := run(cfg, cluster.GoroutineBackend)
		dd := run(cfg, cluster.DESBackend)
		if !reflect.DeepEqual(g.Epochs, dd.Epochs) {
			t.Fatalf("trial %d %+v: epoch stats diverge\ngoroutine: %+v\ndes:       %+v",
				trial, cfg, g.Epochs, dd.Epochs)
		}
		if !reflect.DeepEqual(g.Params, dd.Params) {
			t.Fatalf("trial %d %+v: trained parameters diverge", trial, cfg)
		}
		if g.EffectiveK != dd.EffectiveK {
			t.Fatalf("trial %d %+v: EffectiveK %d vs %d", trial, cfg, g.EffectiveK, dd.EffectiveK)
		}
		if !reflect.DeepEqual(g.Cluster, dd.Cluster) {
			t.Fatalf("trial %d %+v: cluster accounting diverges\ngoroutine: %+v\ndes:       %+v",
				trial, cfg, g.Cluster, dd.Cluster)
		}
	}
}
