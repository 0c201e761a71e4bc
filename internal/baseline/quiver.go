// Package baseline implements the serial CPU LADIES reference
// (Section 8.2.2), the bar the distributed LADIES runs must clear, under
// the same cost model as the paper's pipeline. The Quiver baseline
// (Section 7.3) is a pipeline.Algorithm that pipeline.Run runs; this
// package keeps only a forwarding shim for callers that still name it.
package baseline

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/pipeline"
)

// QuiverConfig is the Quiver baseline's former run description: the
// fields the frozen benchmark/ module still sets. RunQuiver forwards
// it to pipeline.Run; ROADMAP item 1(b) deletes both.
type QuiverConfig struct {
	P          int
	Epochs     int
	MaxBatches int
	Seed       int64

	Topology *cluster.Topology
	// Backend is inert, like pipeline.Config's.
	//
	//gnnvet:allow deadexport — shim set by benchmark/ until ROADMAP item 1(b) deletes it
	Backend      cluster.Backend
	Faults       *cluster.FaultPlan
	CkptInterval int
}

// RunQuiver is pipeline.Run with Algorithm pipeline.Quiver.
func RunQuiver(d *datasets.Dataset, cfg QuiverConfig) (*pipeline.Result, error) {
	return pipeline.Run(d, pipeline.Config{
		P: cfg.P, Algorithm: pipeline.Quiver, Epochs: cfg.Epochs,
		MaxBatches: cfg.MaxBatches, Seed: cfg.Seed,
		Topology: cfg.Topology, Backend: cfg.Backend, Faults: cfg.Faults, CkptInterval: cfg.CkptInterval,
	})
}

// CPULadiesReference simulates the serial reference LADIES sampler
// (Section 8.2.2): one CPU process samples every minibatch one at a
// time. It returns the simulated seconds to sample all minibatches —
// the wall the distributed implementation is compared against (43.9 s
// for Papers, 3.12 s for Protein in the paper).
func CPULadiesReference(d *datasets.Dataset, layers int, maxBatches int, seed int64, model cluster.CostModel) (float64, error) {
	batches := pipeline.Batches(d, maxBatches)
	scale := pipeline.BlockScale(d.NumBatches(), len(batches), 1)
	fanouts := core.LayerSizes(core.LADIES{}, nil, d.LayerWidth, layers)

	cl := cluster.New(1, model)
	res, err := cl.Run(func(r *cluster.Rank) error {
		r.SetPhase("cpu-ladies")
		for i, b := range batches {
			bulk := core.SampleBulk(core.LADIES{}, d.Graph.Adj, [][]int{b}, fanouts, seed+int64(i))
			r.Charge(cluster.Work{Device: cluster.CPU, SparseOps: bulk.Cost.Total()})
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return res.Phase("cpu-ladies") * scale, nil
}
