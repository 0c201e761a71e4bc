package pipeline

import (
	"runtime"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/engine"
	"repro/internal/freelist"
	"repro/internal/gnn"
	"repro/internal/graphio"
	"repro/internal/resilience"
)

// Run is the one training loop: it normalises and validates cfg, then
// simulates cfg.Epochs of data-parallel minibatch training over the
// dataset and returns per-epoch phase breakdowns. An epoch is a
// three-stage engine pipeline (sampling → feature fetch →
// propagation); the algorithm picks the sampling stage (newAttempt),
// so the paper's bulk algorithms and the Quiver baseline are charged
// by the same cost model through the same code. Config.Overlap selects
// the software-pipelined schedule, the default is the paper's
// bulk-synchronous one. Everything but the sampling and fetch stages is
// Run's: the shared model and optimizer, the per-attempt cluster, the
// propagation stage with its gradient all-reduce, epoch-boundary
// checkpoints, restart after injected failures, and the per-epoch fold.
func Run(d *datasets.Dataset, cfg Config) (*Result, error) {
	cfg, err := cfg.normalised(d)
	if err != nil {
		return nil, err
	}
	totalBatches := d.NumBatches()
	batches := Batches(d, cfg.MaxBatches)
	sched := makeSchedule(cfg, len(batches))
	// Extrapolation for MaxBatches truncation is per sampling block, not
	// global: phase times are maxima across ranks, so they scale with
	// the largest per-block share.
	scale := BlockScale(totalBatches, len(batches), sched.samplingBlocks)

	// Per-rank loss sums and batch counts, aggregated after the run
	// into a global batch-weighted epoch loss (ranks may count unequal
	// batch shares when the batch list divides unevenly).
	lossSums := make([][]float64, cfg.P)
	lossCounts := make([][]int, cfg.P)
	var finalParams []float64

	// Replicated-state dedup: data-parallel ranks hold bit-identical
	// parameters and optimizer state at every step, so the simulator
	// keeps ONE model and ONE Adam for the whole cluster instead of p
	// replicas. Ranks read the shared parameters concurrently
	// (Forward/Backward never mutate the model); the single write site
	// is the optimizer step, which runs exactly once per minibatch as
	// part of the gradient all-reduce (AllReduceSumApply): after every
	// rank has contributed and before any rank leaves. This removes the
	// dominant O(p·params) host-side cost per step — the simulated
	// times and training outcome are unchanged.
	model := cfg.newModel(d)
	opt := dense.NewAdam(cfg.LR)
	// Shared all-zero gradient vector contributed by iterations without
	// a real batch; the collective never mutates members' inputs, and
	// its fold skips a shared all-zero contribution.
	zeroGrads := make([]float64, model.NumParams())
	optimizerFlops := int64(cfg.Algorithm.optimizerFlopsPerParam() * model.NumParams())

	// Epoch-boundary checkpointing: the collector assembles each
	// boundary's checkpoint from per-rank contributions and publishes it
	// in serialized form; every restore decodes it afresh (graphio codec
	// on both sides of every recovery).
	var col *resilience.Collector
	if cfg.CkptInterval > 0 {
		col = resilience.NewCollector(cfg.P)
	}
	ckptBytes := resilience.CheckpointBytes(model.NumParams())

	// attempt runs the cluster once from startEpoch, optionally seeded
	// with a restored checkpoint. The cluster, grid, stores and sampling
	// state are rebuilt per attempt: rebuilding them is both
	// deterministic and what a real restart does.
	attempt := func(plan *cluster.FaultPlan, startEpoch int, ck *graphio.Checkpoint) (*cluster.Result, error) {
		// Collect earlier garbage first: otherwise peak memory depends on
		// where the collector's last cycle fell in the caller's or a
		// failed attempt's work, by up to an attempt's footprint.
		runtime.GC()
		m := cfg.Model
		m.Faults = plan
		cl := cluster.New(cfg.P, m)
		grid := cluster.NewGrid(cl, cfg.P, cfg.C)
		stores := NewFeatureStores(grid, d.Features)
		rankStages, release := newAttempt(d, cfg, sched, batches, grid, stores)
		world := grid.World()

		res, err := cl.Run(func(r *cluster.Rank) error {
			if ck != nil {
				r.Restore(ck.Ranks[r.ID])
			}
			if lossSums[r.ID] == nil {
				lossSums[r.ID] = make([]float64, cfg.Epochs)
				lossCounts[r.ID] = make([]int, cfg.Epochs)
			}
			stages := rankStages(r)

			for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
				lossSum, lossN := 0.0, 0
				sampling, fetch := stages(cfg.Seed + int64(epoch)*7919)
				// Propagation with data-parallel gradient all-reduce, on
				// the rank's main timeline.
				propagation := engine.Stage{
					Name: PhasePropagation,
					Run: func(rm *cluster.Rank, idx int, in any) (any, error) {
						it := in.(item)
						rm.SetPhase(PhasePropagation)
						grads := zeroGrads
						if it.batch != nil {
							act, fwdFlops := model.Forward(it.batch, it.feats)
							loss, dLogits := gnn.Loss(act, act.SeedLabels(d.Labels))
							grads = takeGrads(len(zeroGrads))
							bwdFlops := model.BackwardInto(act, dLogits, grads)
							rm.ChargeDense(fwdFlops + bwdFlops)
							rm.ChargeKernels(4 * len(cfg.sizes))
							lossSum += loss
							lossN++
						}
						// Backward was the features' last reader.
						freeFeatures.Put(it.feats)

						// The gradient all-reduce schedule (flat / ring /
						// hierarchical) is dispatched by the model's
						// Collectives table. The optimizer step runs once,
						// on the shared model, before any rank returns.
						cluster.AllReduceSumApply(world, rm, grads, func(total []float64) {
							inv := 1.0 / float64(cfg.P)
							for i := range total {
								total[i] *= inv
							}
							opt.Step(model.Params(), total)
						})
						// The fold read grads before any member could
						// leave the collective.
						if it.batch != nil {
							freeGrads.Put(grads)
						}
						if optimizerFlops > 0 {
							rm.ChargeDense(optimizerFlops)
						}
						return nil, nil
					},
				}
				pipe := &engine.Pipeline{
					Overlap: cfg.Overlap,
					Stages:  []engine.Stage{sampling, fetch, propagation},
				}
				if err := pipe.Execute(r, sched.items()); err != nil {
					return err
				}
				lossSums[r.ID][epoch] = lossSum
				lossCounts[r.ID][epoch] = lossN
				// Epoch boundary bdry = epoch+1 completed epochs. Every
				// rank pays the checkpoint write (HostLink, before the
				// snapshot, so the restore point includes the charge) and
				// contributes its accounting snapshot; rank 0 adds the
				// replicated training state, which is stable here — no rank
				// can start the next epoch's first optimizer step until all
				// ranks pass this boundary's collective.
				if bdry := epoch + 1; col != nil && bdry%cfg.CkptInterval == 0 && bdry < cfg.Epochs {
					r.SetPhase(resilience.PhaseCheckpoint)
					r.ChargeLink(cluster.HostLink, ckptBytes)
					if r.ID == 0 {
						t, am, av := opt.State()
						if err := col.AddState(bdry, model.Params(), t, am, av); err != nil {
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
		if err != nil {
			// Ranks stopped mid-call: the attempt's fetch workspaces and
			// sampling state go to the garbage collector, not the lists.
			return nil, err
		}
		releaseFeatureStores(stores)
		release()
		return res, nil
	}
	// restore resets the shared training state before a re-attempt: to
	// the checkpoint's, or with none to the deterministic initial state.
	restore := func(ck *graphio.Checkpoint) {
		if ck == nil {
			model = cfg.newModel(d)
			opt = dense.NewAdam(cfg.LR)
			return
		}
		model.SetParams(ck.Params)
		opt.SetState(ck.OptT, ck.OptM, ck.OptV)
	}
	res, rec, err := resilience.RunWithRestarts(cfg.Model.Faults, col, restore, attempt)
	if err != nil {
		return nil, err
	}

	// Phase totals cover all epochs; each epoch does identical work, so
	// divide evenly and extrapolate for MaxBatches truncation.
	epochs := make([]EpochStats, cfg.Epochs)
	perEpoch := func(phase string) float64 {
		return res.Phase(phase) * scale / float64(cfg.Epochs)
	}
	perEpochComm := func(phase string) float64 {
		return res.PhaseComm(phase) * scale / float64(cfg.Epochs)
	}
	for e := range epochs {
		loss, lossN := aggregateLoss(lossSums, lossCounts, e)
		epochs[e] = EpochStats{
			Sampling:     perEpoch(PhaseSampling),
			FeatureFetch: perEpoch(PhaseFeatureFetch),
			Propagation:  perEpoch(PhasePropagation),
			Stall:        perEpoch(engine.PhaseStall),
			SamplingComm: perEpochComm(PhaseSampling),
			FetchComm:    perEpochComm(PhaseFeatureFetch),
			Loss:         loss,
			LossBatches:  lossN,
		}
		if cfg.Overlap {
			// Concurrent streams: epoch time is the makespan (max
			// over streams — the rank's final clock), not the sum of
			// the per-stream phase totals.
			epochs[e].Total = res.SimTime * scale / float64(cfg.Epochs)
		} else {
			epochs[e].Total = epochs[e].Sampling + epochs[e].FeatureFetch + epochs[e].Propagation
		}
	}
	return &Result{Epochs: epochs, Cluster: res, Params: finalParams, Cfg: cfg,
		EffectiveK: sched.effectiveBulk(), Recovery: rec}, nil
}

// freeGrads holds gradient vectors whose all-reduce has returned. A
// list, not one vector per rank: only the ranks inside a step at once
// hold one, which at large p is far fewer than p.
var freeGrads freelist.List[[]float64]

// takeGrads returns a gradient vector of n values, contents unspecified.
func takeGrads(n int) []float64 {
	g, _ := freeGrads.Take()
	if cap(g) < n {
		return make([]float64, n)
	}
	return g[:n]
}

// Batches returns d's global batch list, truncated to the first
// maxBatches when the cap is set (0 = all).
func Batches(d *datasets.Dataset, maxBatches int) [][]int {
	batches := d.Batches()
	if maxBatches > 0 && maxBatches < len(batches) {
		batches = batches[:maxBatches]
	}
	return batches
}

// BlockScale returns the extrapolation factor from a truncated batch
// list to the full epoch: the ratio of the largest per-block share of
// batches. blocks is the number of units the batch list is split over
// (p ranks for the replicated algorithm, p/c grid rows for the
// partitioned one).
func BlockScale(total, processed, blocks int) float64 {
	if processed >= total || processed == 0 {
		return 1
	}
	per := func(n int) float64 { return float64((n + blocks - 1) / blocks) }
	return per(total) / per(processed)
}

// aggregateLoss folds per-rank loss sums into the global batch-weighted
// mean for one epoch: sum of all ranks' loss sums over the total number
// of counted batches. A rank without a real batch that epoch carries
// zero weight; rank 0's local average is NOT the epoch loss whenever
// batches divide unevenly across ranks.
func aggregateLoss(sums [][]float64, counts [][]int, epoch int) (float64, int) {
	total, n := 0.0, 0
	for rank := range sums {
		if sums[rank] == nil {
			continue
		}
		total += sums[rank][epoch]
		n += counts[rank][epoch]
	}
	if n == 0 {
		return 0, 0
	}
	return total / float64(n), n
}
