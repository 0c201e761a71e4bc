// Package baseline implements the systems the paper compares against:
//
//   - A Quiver-strategy baseline (Section 7.3): per-minibatch (non-bulk)
//     GPU sampling with the graph topology fully replicated on every
//     device, and cache-less feature fetching across all p ranks. A UVA
//     mode keeps the graph in host DRAM and samples across the PCIe
//     link with most features host-resident (Figure 5).
//   - The serial CPU LADIES reference implementation (Section 8.2.2),
//     used as the bar the distributed LADIES runs must clear.
//
// Both run under the same cost model as the paper's pipeline so the
// comparisons isolate strategy, not implementation accidents.
package baseline

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distsample"
	"repro/internal/engine"
	"repro/internal/pipeline"
)

// QuiverConfig drives the Quiver-strategy baseline. RunQuiver converts
// it to a pipeline.Config, so every field shared with that type means
// exactly what it means there: defaults, validation and the merge of
// Topology, Backend and Faults into Model happen once, in
// the pipeline's config normalisation, and algorithm, contention and
// resilience comparisons hold the baseline to the same rules as the
// paper's pipeline.
type QuiverConfig struct {
	P int

	// UVA stores the graph in host DRAM and samples through the PCIe
	// link with a unified address space; 80% of the features live in
	// DRAM and 20% in a device cache (the split quoted in Section
	// 8.1.1).
	UVA bool

	Epochs     int
	MaxBatches int
	Seed       int64
	Model      cluster.CostModel

	Topology     *cluster.Topology
	Backend      cluster.Backend
	Faults       *cluster.FaultPlan
	CkptInterval int
}

// hostFeatureFraction is the share of feature rows served from host
// memory in UVA mode.
const hostFeatureFraction = 0.8

// RunQuiver simulates Quiver-style training: every rank samples its
// minibatches one at a time on device (paying per-batch kernel
// overheads the bulk approach amortizes) and fetches features with an
// all-to-allv across all p ranks (no replication-factor locality). It
// is pipeline.Train with the quiver strategy: C=1 block-partitions the
// features over all p ranks, so the process column the fetch spans is
// the world, and the schedule is the sequential one — the strategy the
// paper beats never prefetches.
func RunQuiver(d *datasets.Dataset, cfg QuiverConfig) (*pipeline.Result, error) {
	return pipeline.Train(d, pipeline.Config{
		P: cfg.P, C: 1, Sampler: "sage", Epochs: cfg.Epochs,
		MaxBatches: cfg.MaxBatches, Seed: cfg.Seed, Model: cfg.Model,
		Topology: cfg.Topology, Backend: cfg.Backend,
		Faults: cfg.Faults, CkptInterval: cfg.CkptInterval,
	}, pipeline.Strategy{NewAttempt: (&quiver{d: d, uva: cfg.UVA}).newAttempt})
}

// quiver is the baseline's strategy: per-minibatch sampling on a
// replicated graph, cache-less world-wide feature fetch.
type quiver struct {
	d   *datasets.Dataset
	uva bool
}

func (q *quiver) newAttempt(cfg pipeline.Config, batches [][]int, _ *cluster.Grid, stores []*pipeline.FeatureStore) pipeline.Attempt {
	sampler := core.SAGE{CDF: q.d.Graph.RowCDF()}
	return pipeline.Attempt{
		Items:  (len(batches) + cfg.P - 1) / cfg.P, // batches per rank, padded
		Blocks: cfg.P,
		Rank: func(r *cluster.Rank) func(int64) (engine.Stage, engine.Stage) {
			local := distsample.ReplicatedBatches(cfg.P, r.ID, batches)
			fetch := q.fetch(stores[r.ID])
			return func(epochSeed int64) (engine.Stage, engine.Stage) {
				return q.sampling(sampler, local, epochSeed), fetch
			}
		},
	}
}

// sampling is per-minibatch: one bulk call of size one, paying full
// kernel-launch overhead per batch per layer — the cost bulk sampling
// amortizes.
func (q *quiver) sampling(sampler core.SAGE, local [][]int, epochSeed int64) engine.Stage {
	d := q.d
	return engine.Stage{Name: pipeline.PhaseSampling, Run: func(rs *cluster.Rank, round int, _ any) (any, error) {
		rs.SetPhase(pipeline.PhaseSampling)
		var it pipeline.FetchItem
		if round < len(local) {
			bulk := core.SampleBulk(sampler, d.Graph.Adj,
				[][]int{local[round]}, d.Fanouts, epochSeed+int64(round))
			cost := bulk.Cost
			if q.uva {
				// Graph lives in host DRAM: every adjacency row visited
				// crosses PCIe (16 bytes/entry), and the irregular work
				// runs at an effective rate bounded by the host link.
				rs.ChargeLink(cluster.HostLink, cost.ProbFlops*16)
				rs.ChargeSparse(cost.SampleOps + cost.ExtractOps)
			} else {
				rs.ChargeSparse(cost.Total())
			}
			rs.ChargeKernels(cost.Kernels)
			it.Batch = bulk.ExtractBatch(0)
			it.Inputs = it.Batch.InputVertices()
		}
		return it, nil
	}}
}

// fetch gathers features across all p ranks; in UVA mode most rows
// additionally cross the host link.
func (q *quiver) fetch(store *pipeline.FeatureStore) engine.Stage {
	return engine.Stage{Name: pipeline.PhaseFeatureFetch, Run: func(rf *cluster.Rank, _ int, in any) (any, error) {
		it := in.(pipeline.FetchItem)
		rf.SetPhase(pipeline.PhaseFeatureFetch)
		feats := store.Fetch(rf, it.Inputs)
		if q.uva && it.Batch != nil {
			hostRows := int(hostFeatureFraction * float64(len(it.Inputs)))
			rf.ChargeLink(cluster.HostLink, int64(hostRows*q.d.Features.Cols*8))
		}
		return pipeline.TrainItem{Batch: it.Batch, Feats: feats}, nil
	}}
}

// CPULadiesReference simulates the serial reference LADIES sampler
// (Section 8.2.2): one CPU process samples every minibatch one at a
// time. It returns the simulated seconds to sample all minibatches —
// the wall the distributed implementation is compared against (43.9 s
// for Papers, 3.12 s for Protein in the paper).
func CPULadiesReference(d *datasets.Dataset, layers int, maxBatches int, seed int64, model cluster.CostModel) (float64, error) {
	if model.GPUsPerNode == 0 {
		model = cluster.Perlmutter()
	}
	batches := pipeline.Batches(d, maxBatches)
	scale := pipeline.BlockScale(d.NumBatches(), len(batches), 1)
	fanouts := core.LayerSizes(core.LADIES{}, nil, d.LayerWidth, layers)

	cl := cluster.New(1, model)
	res, err := cl.Run(func(r *cluster.Rank) error {
		r.SetPhase("cpu-ladies")
		for i, b := range batches {
			bulk := core.SampleBulk(core.LADIES{}, d.Graph.Adj, [][]int{b}, fanouts, seed+int64(i))
			r.ChargeSparseOn(cluster.CPU, bulk.Cost.Total())
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return res.Phase("cpu-ladies") * scale, nil
}
