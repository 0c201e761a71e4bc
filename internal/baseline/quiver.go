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
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/distsample"
	"repro/internal/engine"
	"repro/internal/gnn"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// QuiverConfig drives the Quiver-strategy baseline.
type QuiverConfig struct {
	P int

	// UVA stores the graph in host DRAM and samples through the PCIe
	// link with a unified address space; 80% of the features live in
	// DRAM and 20% in a device cache (the split quoted in Section
	// 8.1.1).
	UVA bool

	Hidden     int
	Epochs     int
	LR         float64
	MaxBatches int
	Seed       int64
	Model      cluster.CostModel

	// Collectives selects the collective schedules the baseline's
	// cluster charges under (merged into Model.Collectives), so
	// algorithm comparisons hold the baseline to the same rules as the
	// paper's pipeline.
	Collectives cluster.Collectives

	// Topology selects the physical-link topology (set on
	// Model.Topology), holding the baseline to the same shared-link
	// contention rules as the paper's pipeline; nil keeps the pure α–β
	// model.
	Topology *cluster.Topology

	// Backend selects the simulator's execution backend (set on
	// Model.Backend): goroutines or the discrete-event loop. Results
	// are bit-identical either way; zero resolves $GNN_BACKEND, then
	// goroutines.
	Backend cluster.Backend

	// Faults is the fail-stop injection plan (merged into Model.Faults),
	// and CkptInterval the epoch-boundary checkpoint cadence, with the
	// same semantics as the paper pipeline's fields (pipeline.Config):
	// the baseline recovers from injected failures through the same
	// checkpoint/restore machinery, so resilience comparisons hold it to
	// the same rules.
	Faults       *cluster.FaultPlan
	CkptInterval int
}

// hostFeatureFraction is the share of feature rows served from host
// memory in UVA mode.
const hostFeatureFraction = 0.8

// RunQuiver simulates Quiver-style training: every rank samples its
// minibatches one at a time on device (paying per-batch kernel
// overheads the bulk approach amortizes) and fetches features with an
// all-to-allv across all p ranks (no replication-factor locality).
func RunQuiver(d *datasets.Dataset, cfg QuiverConfig) (*pipeline.Result, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("baseline: need p > 0")
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 64
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 1
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	if cfg.Model.GPUsPerNode == 0 {
		cfg.Model = cluster.Perlmutter()
	}
	cfg.Model.Collectives = cfg.Model.Collectives.Merge(cfg.Collectives)
	if err := cfg.Model.Collectives.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if cfg.Topology != nil {
		cfg.Model.Topology = cfg.Topology
	}
	if cfg.Backend != cluster.DefaultBackend {
		cfg.Model.Backend = cfg.Backend
	}
	if err := cfg.Model.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if cfg.Faults != nil {
		cfg.Model.Faults = cfg.Faults
	}
	if err := cfg.Model.Faults.Validate(cfg.P); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if cfg.CkptInterval < 0 {
		return nil, fmt.Errorf("baseline: negative checkpoint interval %d", cfg.CkptInterval)
	}
	layers := len(d.Fanouts)

	batches := d.Batches()
	totalBatches := len(batches)
	if cfg.MaxBatches > 0 && cfg.MaxBatches < totalBatches {
		batches = batches[:cfg.MaxBatches]
	}
	scale := pipeline.BlockScale(totalBatches, len(batches), cfg.P)
	rounds := (len(batches) + cfg.P - 1) / cfg.P // batches per rank, padded

	// Per-rank loss sums and batch counts, folded after the run into
	// the global batch-weighted epoch loss (rank 0's local average
	// misreports whenever batches divide unevenly across ranks).
	lossSums := make([][]float64, cfg.P)
	lossCounts := make([][]int, cfg.P)
	var finalParams []float64

	// quiverItem carries one minibatch between the baseline's stages.
	type quiverItem struct {
		bg    *core.BatchGraph
		verts []int
		feats *dense.Matrix
	}

	// Replicated-state dedup (see pipeline.Run): one shared model and
	// optimizer for all data-parallel ranks; the step runs once per
	// minibatch inside the gradient all-reduce.
	newModel := func() *gnn.Model {
		return gnn.NewModel(gnn.Config{
			In:      d.Features.Cols,
			Hidden:  cfg.Hidden,
			Classes: d.NumClasses,
			Layers:  layers,
			Seed:    cfg.Seed,
		})
	}
	model := newModel()
	opt := dense.NewAdam(cfg.LR)
	zeroGrads := make([]float64, model.NumParams())

	var col *resilience.Collector
	if cfg.CkptInterval > 0 {
		col = resilience.NewCollector(cfg.P)
	}
	ckptBytes := resilience.CheckpointBytes(model.NumParams())
	sampler := core.SAGE{CDF: d.Graph.RowCDF()}

	// attempt runs the cluster once from startEpoch, optionally seeded
	// with a restored checkpoint (see pipeline.Run — same structure,
	// same restart driver below).
	attempt := func(plan *cluster.FaultPlan, startEpoch int, ck *graphio.Checkpoint) (*cluster.Result, error) {
		m := cfg.Model
		m.Faults = plan
		cl := cluster.New(cfg.P, m)
		// Features are block-partitioned over all p ranks (grid with
		// c=1); the fetch all-to-allv spans the world communicator.
		grid := cluster.NewGrid(cl, cfg.P, 1)
		stores := pipeline.NewFeatureStores(grid, d.Features)
		world := grid.World()

		return cl.Run(func(r *cluster.Rank) error {
			if ck != nil {
				r.Restore(ck.Ranks[r.ID])
			}
			store := stores[r.ID]
			local := distsample.ReplicatedBatches(cfg.P, r.ID, batches)
			if lossSums[r.ID] == nil {
				lossSums[r.ID] = make([]float64, cfg.Epochs)
				lossCounts[r.ID] = make([]int, cfg.Epochs)
			}

			for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
				epochSeed := cfg.Seed + int64(epoch)*7919
				lossSum, lossN := 0.0, 0

				// The Quiver strategy is strictly bulk synchronous — no
				// prefetching — so the staged engine runs its sequential
				// schedule; the stage decomposition only shares structure
				// (and phase accounting) with the paper's pipeline.
				pipe := &engine.Pipeline{Stages: []engine.Stage{
					// 1) Per-minibatch sampling: one bulk call of size
					// one, paying full kernel-launch overhead per batch
					// per layer — the cost bulk sampling amortizes.
					{
						Name: pipeline.PhaseSampling,
						Run: func(rs *cluster.Rank, round int, _ any) (any, error) {
							rs.SetPhase(pipeline.PhaseSampling)
							var it quiverItem
							if round < len(local) {
								bulk := core.SampleBulk(sampler, d.Graph.Adj,
									[][]int{local[round]}, d.Fanouts, epochSeed+int64(round))
								cost := bulk.Cost
								if cfg.UVA {
									// Graph lives in host DRAM: every
									// adjacency row visited crosses PCIe
									// (16 bytes/entry), and the irregular
									// work runs at an effective rate
									// bounded by the host link.
									rs.ChargeLink(cluster.HostLink, cost.ProbFlops*16)
									rs.ChargeSparse(cost.SampleOps + cost.ExtractOps)
								} else {
									rs.ChargeSparse(cost.Total())
								}
								rs.ChargeKernels(cost.Kernels)
								it.bg = bulk.ExtractBatch(0)
								it.verts = it.bg.InputVertices()
							}
							return it, nil
						},
					},
					// 2) Feature fetch across all p ranks.
					{
						Name: pipeline.PhaseFeatureFetch,
						Run: func(rf *cluster.Rank, round int, in any) (any, error) {
							it := in.(quiverItem)
							rf.SetPhase(pipeline.PhaseFeatureFetch)
							it.feats = store.Fetch(rf, it.verts)
							if cfg.UVA && it.bg != nil {
								hostRows := int(hostFeatureFraction * float64(len(it.verts)))
								rf.ChargeLink(cluster.HostLink, int64(hostRows*d.Features.Cols*8))
							}
							return it, nil
						},
					},
					// 3) Propagation with data-parallel all-reduce.
					{
						Name: pipeline.PhasePropagation,
						Run: func(rm *cluster.Rank, round int, in any) (any, error) {
							it := in.(quiverItem)
							rm.SetPhase(pipeline.PhasePropagation)
							grads := zeroGrads
							if it.bg != nil {
								act, fwdFlops := model.Forward(it.bg, it.feats)
								labels := make([]int, len(it.bg.Seeds))
								for i, v := range it.bg.Seeds {
									labels[i] = d.Labels[v]
								}
								loss, dLogits := gnn.Loss(act, labels)
								g, bwdFlops := model.Backward(act, dLogits)
								grads = g
								rm.ChargeDense(fwdFlops + bwdFlops)
								rm.ChargeKernels(4 * layers)
								lossSum += loss
								lossN++
							}
							cluster.AllReduceSumApply(world, rm, grads, func(total []float64) {
								inv := 1.0 / float64(cfg.P)
								for i := range total {
									total[i] *= inv
								}
								opt.Step(model.Params(), total)
							})
							return nil, nil
						},
					},
				}}
				if err := pipe.Execute(r, rounds); err != nil {
					return err
				}
				lossSums[r.ID][epoch] = lossSum
				lossCounts[r.ID][epoch] = lossN
				// Epoch-boundary checkpoint, identical protocol to
				// pipeline.Run: charge first (the restore point includes
				// the write), then contribute snapshots; rank 0 adds the
				// replicated training state. The baseline has no dropout,
				// so the stream position saved is the seed's zero value.
				if bdry := epoch + 1; col != nil && bdry%cfg.CkptInterval == 0 && bdry < cfg.Epochs {
					r.SetPhase(resilience.PhaseCheckpoint)
					r.ChargeLink(cluster.HostLink, ckptBytes)
					if r.ID == 0 {
						t, am, av := opt.State()
						if err := col.AddState(bdry, model.DropoutSeed(), model.Params(), t, am, av); err != nil {
							return err
						}
					}
					if err := col.AddRank(bdry, r.ID, r.Snapshot()); err != nil {
						return err
					}
				}
			}
			if r.ID == 0 {
				finalParams = append([]float64(nil), model.Params()...)
			}
			return nil
		})
	}

	// Restart driver (see pipeline.Run for the full rationale): retire
	// the fired failure, restore the latest checkpoint or rebuild the
	// deterministic initial state, and re-run until an attempt finishes.
	plan := cfg.Model.Faults
	var rec *resilience.Stats
	if plan != nil || col != nil {
		rec = &resilience.Stats{}
	}
	var res *cluster.Result
	restarted := false
	startEpoch, restoreClock := 0, 0.0
	var ck *graphio.Checkpoint
	for {
		if rec != nil {
			rec.Attempts++
		}
		if ck != nil {
			model.SetParams(ck.Params)
			model.SetDropoutSeed(ck.DropSeed)
			opt.SetState(ck.OptT, ck.OptM, ck.OptV)
		} else if restarted {
			model = newModel()
			opt = dense.NewAdam(cfg.LR)
		}
		r, err := attempt(plan, startEpoch, ck)
		if err == nil {
			res = r
			break
		}
		var rf *cluster.RankFailure
		if !errors.As(err, &rf) {
			return nil, err
		}
		plan = plan.Retire(rf)
		restarted = true
		ck, startEpoch, restoreClock = nil, 0, 0
		if col != nil {
			col.Abort()
			if ck, err = col.Latest(); err != nil {
				return nil, err
			}
			if ck != nil {
				startEpoch = ck.Epoch
				restoreClock = col.LatestClock()
			}
		}
		rec.RecordFailure(rf, startEpoch, restoreClock)
	}

	epochs := make([]pipeline.EpochStats, cfg.Epochs)
	perEpoch := func(phase string) float64 {
		return res.Phase(phase) * scale / float64(cfg.Epochs)
	}
	perEpochComm := func(phase string) float64 {
		return res.PhaseComm(phase) * scale / float64(cfg.Epochs)
	}
	for e := range epochs {
		loss, lossN := pipeline.AggregateLoss(lossSums, lossCounts, e)
		epochs[e] = pipeline.EpochStats{
			Sampling:     perEpoch(pipeline.PhaseSampling),
			FeatureFetch: perEpoch(pipeline.PhaseFeatureFetch),
			Propagation:  perEpoch(pipeline.PhasePropagation),
			SamplingComm: perEpochComm(pipeline.PhaseSampling),
			FetchComm:    perEpochComm(pipeline.PhaseFeatureFetch),
			Loss:         loss,
			LossBatches:  lossN,
		}
		epochs[e].Total = epochs[e].Sampling + epochs[e].FeatureFetch + epochs[e].Propagation
	}
	return &pipeline.Result{Epochs: epochs, Cluster: res, Params: finalParams, Recovery: rec}, nil
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
	batches := d.Batches()
	total := len(batches)
	if maxBatches > 0 && maxBatches < total {
		batches = batches[:maxBatches]
	}
	scale := float64(total) / float64(len(batches))
	fanouts := make([]int, layers)
	for i := range fanouts {
		fanouts[i] = d.LayerWidth
	}

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

// GraphBytes reports the in-memory size of a dataset's replicated
// state, used by the harness to pick the highest replication factor
// that "fits" (the paper chooses c and k per GPU memory).
func GraphBytes(d *datasets.Dataset) int64 {
	return int64(d.Graph.Adj.Bytes())
}

// FeatureBytes reports the feature matrix payload size.
func FeatureBytes(d *datasets.Dataset) int64 {
	return int64(d.Features.Bytes())
}
