package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/distsample"
	"repro/internal/engine"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/resilience"
)

// Phase names for the Figure 4 breakdown.
const (
	PhaseSampling     = "sampling"
	PhaseFeatureFetch = "feature-fetch"
	PhasePropagation  = "propagation"
)

// Algorithm selects the distributed sampling strategy.
type Algorithm int

const (
	// GraphReplicated replicates A on every rank (Section 5.1).
	GraphReplicated Algorithm = iota
	// GraphPartitioned partitions A 1.5D across the grid (Section 5.2).
	GraphPartitioned
)

// KAll is the explicit "sample every minibatch in one bulk" setting
// for Config.K. The schedule treats any K <= 0 as "all"; KAll differs
// from a plain 0 only for the autotuner, which reads 0 as "unset —
// choose for me" and leaves KAll (or any negative K) untouched.
const KAll = -1

// Config drives one simulated training run.
type Config struct {
	P int // simulated GPUs
	C int // replication factor (chosen per memory in Figure 4)
	K int // bulk size: minibatches sampled per bulk call globally; <= 0 = all (see KAll)

	Algorithm     Algorithm
	SparsityAware bool // Algorithm 2 row fetching (vs oblivious broadcast)

	// Collectives selects, per operation class, the collective
	// schedule the simulated cluster charges under (merged into
	// Model.Collectives; explicit Model entries win only when this is
	// unset). The zero value keeps the paper's FlatTree forms.
	Collectives cluster.Collectives

	// HierAllReduce is sugar for Collectives.AllReduce =
	// cluster.Hierarchical: the two-level (intra-node, then leaders)
	// gradient all-reduce that keeps network traffic proportional to
	// node count. An explicit Collectives.AllReduce selection wins.
	HierAllReduce bool

	// Topology selects the physical-link topology the simulated
	// cluster charges under (set on Model.Topology): nil keeps the
	// pure α–β model — no contention, bit-identical to the paper's
	// closed forms — while cluster.PerlmutterTopology or
	// cluster.OversubscribedTopology make links finite, shared
	// resources so concurrent transfers (same-collective members on a
	// shared NIC, prefetch streams against the gradient all-reduce)
	// split bandwidth instead of each charging full β.
	Topology *cluster.Topology

	// Backend selects the simulator's execution backend (set on
	// Model.Backend): the goroutine backend runs one goroutine per
	// rank, the discrete-event backend runs the whole cluster as one
	// event loop (cluster.DESBackend). Results are bit-identical
	// either way; only wall time differs. Zero resolves $GNN_BACKEND,
	// then goroutines.
	Backend cluster.Backend

	// Overlap runs the staged-execution engine in its software-
	// pipelined mode: bulk sampling and feature fetching for upcoming
	// minibatches proceed on their own simulated streams (bounded
	// queues, double-buffered BulkSample handoff) while the current
	// minibatch trains, so epoch time becomes the max over concurrent
	// streams instead of the sum of phases. Applies to both
	// algorithms: Graph Replicated sampling is communication-free
	// (Section 5.1), and the Graph Partitioned algorithm's collectives
	// run stream-safely on per-stage communicator clones
	// (cluster.Comm.ForStream), so its sampling and feature-fetch
	// stages prefetch on their own streams too. The paper's pipeline
	// is bulk synchronous; this is the natural next optimization its
	// structure permits. Off by default — the sequential schedule is
	// identical to the paper's Figure 3 loop, and either way the
	// training outcome is bit-identical (the schedule moves when work
	// is charged, never what is computed).
	Overlap bool

	Sampler string // "sage", "ladies" or "fastgcn"
	Hidden  int
	Layers  int // GNN depth; LADIES presets use 1 (Table 4)

	// Dropout applies inverted dropout at this rate on hidden
	// activations during training (0 disables).
	Dropout float64
	// Agg selects the neighbor aggregation (default GraphSAGE mean).
	Agg gnn.Aggregator

	// CachePolicy enables per-rank feature caching in the fetch step
	// (the SALIENT++-style extension of Section 8.1.2). CacheFrac is
	// the per-rank cache capacity as a fraction of the vertex count.
	CachePolicy cache.Policy
	CacheFrac   float64

	Epochs     int
	LR         float64
	MaxBatches int // process at most this many global batches per epoch (0 = all); timings are extrapolated
	// TrackVal evaluates validation accuracy after every epoch
	// (sampled evaluation on the dataset's Val split).
	TrackVal bool

	// Faults is the fail-stop injection plan (merged into Model.Faults;
	// an explicit Model.Faults wins only when this is nil). When a
	// planned failure fires, the run aborts at the failed rank's
	// simulated fail time, the driver retires the fired entry, restores
	// the latest epoch-boundary checkpoint (or restarts from scratch if
	// CkptInterval is 0) and re-runs — so training always completes,
	// and Result.Recovery reports what the recovery cost.
	Faults *cluster.FaultPlan
	// CkptInterval checkpoints the complete resumable state — model
	// parameters, Adam moments, dropout stream position, and every
	// rank's simulated-time accounting snapshot — every CkptInterval
	// completed epochs (0 disables). Each rank charges the checkpoint's
	// serialized bytes over HostLink at each boundary, so checkpointing
	// costs simulated time whether or not a failure ever fires. With
	// Topology == nil and CachePolicy == None, a failed-and-restored
	// run's Result is bit-identical to an unfailed run with the same
	// interval (the differential crash-recovery suite pins this).
	CkptInterval int

	Seed  int64
	Model cluster.CostModel
}

// withDefaults fills zero fields.
func (c Config) withDefaults(d *datasets.Dataset) Config {
	if c.C <= 0 {
		c.C = 1
	}
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.Sampler == "" {
		c.Sampler = "sage"
	}
	if c.Layers == 0 {
		if c.Sampler == "ladies" || c.Sampler == "fastgcn" {
			c.Layers = 1
		} else {
			c.Layers = len(d.Fanouts)
		}
	}
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Model.GPUsPerNode == 0 {
		c.Model = cluster.Perlmutter()
	}
	if c.HierAllReduce && c.Collectives.AllReduce == cluster.DefaultAlgorithm {
		c.Collectives.AllReduce = cluster.Hierarchical
	}
	c.Model.Collectives = c.Model.Collectives.Merge(c.Collectives)
	if c.Topology != nil {
		c.Model.Topology = c.Topology
	}
	if c.Backend != cluster.DefaultBackend {
		c.Model.Backend = c.Backend
	}
	if c.Faults != nil {
		c.Model.Faults = c.Faults
	}
	return c
}

// EpochStats is the per-epoch breakdown of Figure 4: simulated seconds
// per pipeline phase (max across ranks), plus training metrics.
//
// In the sequential schedule Total is the sum of the three phases. In
// the overlapped schedule the phases run on concurrent streams, so
// Total is the epoch makespan (max over streams) and may be smaller
// than the sum; Stall reports the exposed (un-hidden) prefetch
// latency the consumer streams had to wait out.
type EpochStats struct {
	Sampling     float64
	FeatureFetch float64
	Propagation  float64
	Total        float64
	// Stall is the synchronization-stall time of the overlapped
	// schedule (zero for sequential runs), summed over a rank's
	// streams and maxed across ranks — a diagnostic of exposed
	// prefetch latency, which can exceed the makespan when several
	// streams wait concurrently.
	Stall        float64
	SamplingComm float64
	FetchComm    float64
	// Loss is the epoch's global mean training loss: every rank's loss
	// sum weighted by the batches it actually counted, so uneven batch
	// splits across ranks do not skew it toward any one rank's share.
	Loss float64
	// LossBatches is the number of minibatch losses aggregated into
	// Loss across all ranks (dummy-padded iterations excluded).
	LossBatches int
	// ValAccuracy is populated when Config.TrackVal is set.
	ValAccuracy float64
}

// Result aggregates a run.
type Result struct {
	Epochs  []EpochStats
	Cluster *cluster.Result
	// Params holds rank 0's trained parameters.
	Params []float64
	Cfg    Config
	// EffectiveK is the bulk size the schedule actually used per
	// round: sampling blocks times batches per block per round. It can
	// exceed a requested 0 < Cfg.K < samplingBlocks, because every
	// block samples at least one batch per round — the schedule clamps
	// the bulk up rather than leaving blocks idle, and surfaces the
	// inflation here so memory-budgeted callers (the autotuner picked
	// K to fit) can see it.
	EffectiveK int
	// Recovery reports the restart bookkeeping when fault injection or
	// checkpointing was configured (nil otherwise): attempts, fired
	// failures, wasted simulated work. Diagnostic only — the
	// differential suite excludes it from bit-identity comparison.
	Recovery *resilience.Stats
}

// LastEpoch returns the final epoch's stats, or a zero EpochStats for
// a run with no recorded epochs.
func (r *Result) LastEpoch() EpochStats {
	if len(r.Epochs) == 0 {
		return EpochStats{}
	}
	return r.Epochs[len(r.Epochs)-1]
}

// schedule fixes, identically on every rank, how many bulk-sampling
// rounds an epoch has and how many training iterations each round has,
// so all ranks issue the same collective sequence even when batch
// counts divide unevenly (ranks without a real batch join with dummy
// work).
type schedule struct {
	samplingBlocks int // ranks (replicated) or grid rows (partitioned) sharing the batch list
	sampPerRound   int // batches each sampling block handles per bulk round
	rounds         int
	trainPerRound  int // training iterations per round per rank
	trainStride    int // replicated: 1; partitioned: c (row members interleave)
}

func makeSchedule(cfg Config, grid *cluster.Grid, totalBatches int) schedule {
	s := schedule{trainStride: 1, samplingBlocks: cfg.P}
	if cfg.Algorithm == GraphPartitioned {
		s.samplingBlocks = grid.Rows
		s.trainStride = cfg.C
	}
	bulk := cfg.K
	if bulk <= 0 || bulk > totalBatches {
		bulk = totalBatches
	}
	s.sampPerRound = bulk / s.samplingBlocks
	if s.sampPerRound == 0 {
		// A requested bulk below the block count cannot be honored:
		// every block samples at least one batch per round, so the
		// effective bulk is samplingBlocks > K. effectiveBulk surfaces
		// the inflation (Result.EffectiveK) instead of hiding it from
		// memory-budgeted callers.
		s.sampPerRound = 1
	}
	// The largest block owns ceil(total/blocks) batches.
	maxLocal := (totalBatches + s.samplingBlocks - 1) / s.samplingBlocks
	s.rounds = (maxLocal + s.sampPerRound - 1) / s.sampPerRound
	if s.rounds == 0 {
		s.rounds = 1
	}
	s.trainPerRound = (s.sampPerRound + s.trainStride - 1) / s.trainStride
	return s
}

// effectiveBulk is the global bulk size the schedule realizes per
// round. It exceeds the requested K exactly when 0 < K < samplingBlocks
// forced sampPerRound up to one batch per block.
func (s schedule) effectiveBulk() int { return s.samplingBlocks * s.sampPerRound }

// blockScale returns the extrapolation factor from a truncated batch
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

// fetchItem is the sampling stage's per-minibatch output: one
// extracted batch graph and its input frontier, handed to the
// feature-fetch stage.
type fetchItem struct {
	bg    *core.BatchGraph
	verts []int
}

// trainItem is the feature-fetch stage's output: the batch graph plus
// its gathered input features, handed to the propagation stage.
type trainItem struct {
	bg    *core.BatchGraph
	feats *dense.Matrix
}

// newSampler maps the config's sampler name to its implementation for
// sampling from the whole of g's adjacency matrix. GraphSAGE takes the
// graph's row-CDF table, built on the first call and shared from then
// on by every rank, epoch and run over g.
func newSampler(name string, g *graph.Graph) core.Sampler {
	switch name {
	case "ladies":
		return core.LADIES{}
	case "fastgcn":
		return core.FastGCN{}
	default:
		return core.SAGE{CDF: g.RowCDF()}
	}
}

// Run simulates cfg.Epochs of distributed minibatch training over the
// dataset and returns per-epoch phase breakdowns. The epoch loop is
// expressed as a three-stage engine pipeline (bulk sampling → feature
// fetch → propagation); Config.Overlap selects the software-pipelined
// schedule, the default is the paper's bulk-synchronous one.
func Run(d *datasets.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(d)
	if cfg.P%cfg.C != 0 {
		return nil, fmt.Errorf("pipeline: c=%d must divide p=%d", cfg.C, cfg.P)
	}
	if err := cfg.Model.Collectives.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if err := cfg.Model.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if err := cfg.Model.Faults.Validate(cfg.P); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if cfg.CkptInterval < 0 {
		return nil, fmt.Errorf("pipeline: negative checkpoint interval %d", cfg.CkptInterval)
	}

	batches := d.Batches()
	totalBatches := len(batches)
	if cfg.MaxBatches > 0 && cfg.MaxBatches < totalBatches {
		batches = batches[:cfg.MaxBatches]
	}

	layerwise := cfg.Sampler == "ladies" || cfg.Sampler == "fastgcn"
	fanouts := d.Fanouts
	if layerwise {
		fanouts = make([]int, cfg.Layers)
		for i := range fanouts {
			fanouts[i] = d.LayerWidth
		}
	}
	if len(fanouts) != cfg.Layers {
		f := make([]int, cfg.Layers)
		for i := range f {
			f[i] = fanouts[i%len(fanouts)]
		}
		fanouts = f
	}

	// Per-rank loss sums and batch counts, aggregated after the run
	// into a global batch-weighted epoch loss (ranks may count unequal
	// batch shares when the batch list divides unevenly).
	lossSums := make([][]float64, cfg.P)
	lossCounts := make([][]int, cfg.P)
	var finalParams []float64
	var epochParams [][]float64 // rank 0 per-epoch snapshots for TrackVal
	if cfg.TrackVal {
		epochParams = make([][]float64, cfg.Epochs)
	}

	// Replicated-state dedup: data-parallel ranks hold bit-identical
	// parameters and optimizer state at every step, so the simulator
	// keeps ONE model and ONE Adam for the whole cluster instead of p
	// replicas. Ranks read the shared parameters concurrently
	// (Forward/Backward never mutate the model); the single write site
	// is the optimizer step, which runs exactly once per minibatch
	// inside the gradient all-reduce (AllReduceSumApply) while every
	// rank is synchronized in the collective. This removes the
	// dominant O(p·params) host-side cost per step — the simulated
	// times and training outcome are unchanged.
	newModel := func() *gnn.Model {
		m := gnn.NewModel(gnn.Config{
			In:      d.Features.Cols,
			Hidden:  cfg.Hidden,
			Classes: d.NumClasses,
			Layers:  cfg.Layers,
			Agg:     cfg.Agg,
			Seed:    cfg.Seed,
		})
		if cfg.Dropout > 0 {
			m.SetDropout(cfg.Dropout, cfg.Seed)
		}
		return m
	}
	model := newModel()
	opt := dense.NewAdam(cfg.LR)
	// Shared all-zero gradient vector contributed by iterations without
	// a real batch; the collective never mutates members' inputs.
	zeroGrads := make([]float64, model.NumParams())

	// Epoch-boundary checkpointing: the collector assembles each
	// boundary's checkpoint from per-rank contributions and publishes it
	// in serialized form; every restore decodes it afresh (graphio codec
	// on both sides of every recovery).
	var col *resilience.Collector
	if cfg.CkptInterval > 0 {
		col = resilience.NewCollector(cfg.P)
	}
	ckptBytes := resilience.CheckpointBytes(model.NumParams())

	// Only the replicated algorithm samples from the whole matrix; the
	// partitioned drivers work on their own blocks of it.
	var sampler core.Sampler
	if cfg.Algorithm != GraphPartitioned {
		sampler = newSampler(cfg.Sampler, d.Graph)
	}

	// attempt runs the cluster once from startEpoch, optionally seeded
	// with a restored checkpoint. The cluster, grid, stores and
	// partitioned-sampling state are rebuilt per attempt: a failed run
	// leaves poisoned rendezvous and mid-flight arena state behind, and
	// rebuilding them is both deterministic and what a real restart does.
	var sched schedule
	var scale float64
	attempt := func(plan *cluster.FaultPlan, startEpoch int, ck *graphio.Checkpoint) (*cluster.Result, error) {
		m := cfg.Model
		m.Faults = plan
		cl := cluster.New(cfg.P, m)
		grid := cluster.NewGrid(cl, cfg.P, cfg.C)
		stores := NewFeatureStores(grid, d.Features)
		var parts []*distsample.Partitioned
		if cfg.Algorithm == GraphPartitioned {
			if grid.Rows%grid.C != 0 {
				return nil, fmt.Errorf("pipeline: partitioned algorithm needs c^2 | p (p=%d c=%d)", cfg.P, cfg.C)
			}
			parts = distsample.NewPartitionedSet(grid, d.Graph.Adj, cfg.SparsityAware)
		}
		sched = makeSchedule(cfg, grid, len(batches))
		// Extrapolation for MaxBatches truncation is per sampling block
		// (rank or grid row), not global: phase times are maxima across
		// ranks, so they scale with the largest per-block share.
		scale = BlockScale(totalBatches, len(batches), sched.samplingBlocks)
		world := grid.World()

		return cl.Run(func(r *cluster.Rank) error {
			if ck != nil {
				r.Restore(ck.Ranks[r.ID])
			}
			store := stores[r.ID]
			if lossSums[r.ID] == nil {
				lossSums[r.ID] = make([]float64, cfg.Epochs)
				lossCounts[r.ID] = make([]int, cfg.Epochs)
			}
			var featCache cache.Cache
			if cfg.CachePolicy != cache.None && cfg.CacheFrac > 0 {
				capacity := int(cfg.CacheFrac * float64(d.Graph.NumVertices()))
				featCache = cache.New(cfg.CachePolicy, capacity, d.Graph.Degrees())
			}

			var local [][]int
			trainOffset := 0
			if cfg.Algorithm == GraphPartitioned {
				local = distsample.LocalBatches(grid, r.ID, batches)
				trainOffset = grid.ColIndex(r.ID)
			} else {
				local = distsample.ReplicatedBatches(cfg.P, r.ID, batches)
			}
			// Communicators each stage drives: in overlapped mode the
			// engine gives every collective-bearing stage its own stream,
			// and the stage bodies reach the matching communicator clones
			// with ForStream (stream-safe collectives).
			fetchComms := []*cluster.Comm{grid.ColComm(r.ID)}
			var sampComms []*cluster.Comm
			if cfg.Algorithm == GraphPartitioned {
				sampComms = []*cluster.Comm{grid.ColComm(r.ID), grid.RowComm(r.ID)}
			}

			for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
				epochSeed := cfg.Seed + int64(epoch)*7919
				lossSum, lossN := 0.0, 0

				// Stage state: the sampling stage owns the current bulk
				// (and, in overlapped mode, the next one in flight — the
				// double buffer realized by its output queue).
				var bulk *core.BulkSample
				var chunk [][]int

				pipe := &engine.Pipeline{
					Overlap: cfg.Overlap,
					Stages: []engine.Stage{
						// 1) Sampling (Figure 3 left): one bulk call per
						// round, emitted one extracted minibatch at a
						// time. Every rank calls the same sampler the
						// same number of times; empty chunks still join
						// the partitioned collectives.
						{
							Name: PhaseSampling,
							// One full round of minibatches buffers
							// downstream while the next round's bulk is
							// sampled: the double-buffered BulkSample
							// handoff.
							Queue: sched.trainPerRound,
							Comms: sampComms,
							Run: func(rs *cluster.Rank, idx int, _ any) (any, error) {
								round, t := idx/sched.trainPerRound, idx%sched.trainPerRound
								if t == 0 {
									lo := round * sched.sampPerRound
									hi := lo + sched.sampPerRound
									if lo > len(local) {
										lo = len(local)
									}
									if hi > len(local) {
										hi = len(local)
									}
									chunk = local[lo:hi]
									rs.SetPhase(PhaseSampling)
									rs.PushPhase(PhaseSampling) // nested level for the driver's sub-phases
									if cfg.Algorithm == GraphPartitioned {
										switch cfg.Sampler {
										case "ladies":
											bulk = distsample.SampleLADIESPartitioned(rs, parts[rs.ID], chunk, d.LayerWidth, cfg.Layers, epochSeed)
										case "fastgcn":
											bulk = distsample.SampleFastGCNPartitioned(rs, parts[rs.ID], chunk, d.LayerWidth, cfg.Layers, epochSeed)
										default:
											bulk = distsample.SampleSAGEPartitioned(rs, parts[rs.ID], chunk, fanouts, epochSeed)
										}
									} else {
										bulk = distsample.SampleReplicated(rs, sampler, d.Graph.Adj, chunk, fanouts, epochSeed)
									}
									rs.PopPhase()
								}
								bi := t*sched.trainStride + trainOffset
								var it fetchItem
								if bi < len(chunk) {
									it.bg = bulk.ExtractBatch(bi)
									it.verts = it.bg.InputVertices()
								}
								return it, nil
							},
						},
						// 2) Feature fetch: all-to-allv over the process
						// column; iterations without a real batch join
						// with empty requests.
						{
							Name:  PhaseFeatureFetch,
							Queue: 1,
							Comms: fetchComms,
							Run: func(rf *cluster.Rank, idx int, in any) (any, error) {
								it := in.(fetchItem)
								rf.SetPhase(PhaseFeatureFetch)
								feats := store.FetchCached(rf, it.verts, featCache)
								return trainItem{bg: it.bg, feats: feats}, nil
							},
						},
						// 3) Propagation with data-parallel gradient
						// all-reduce, on the rank's main timeline;
						// iterations without a real batch contribute
						// zero gradients.
						{
							Name:  PhasePropagation,
							Comms: []*cluster.Comm{world},
							Run: func(rm *cluster.Rank, idx int, in any) (any, error) {
								ti := in.(trainItem)
								rm.SetPhase(PhasePropagation)
								grads := zeroGrads
								if ti.bg != nil {
									act, fwdFlops := model.Forward(ti.bg, ti.feats)
									labels := make([]int, len(ti.bg.Seeds))
									for i, v := range ti.bg.Seeds {
										labels[i] = d.Labels[v]
									}
									loss, dLogits := gnn.Loss(act, labels)
									g, bwdFlops := model.Backward(act, dLogits)
									grads = g
									rm.ChargeDense(fwdFlops + bwdFlops)
									rm.ChargeKernels(4 * cfg.Layers)
									lossSum += loss
									lossN++
								}

								// The gradient all-reduce schedule (flat /
								// ring / hierarchical) is dispatched by the
								// model's Collectives table. The optimizer
								// step runs once, on the shared model,
								// inside the collective; every rank still
								// charges the step's memory traffic.
								cluster.AllReduceSumApply(world, rm, grads, func(total []float64) {
									inv := 1.0 / float64(cfg.P)
									for i := range total {
										total[i] *= inv
									}
									opt.Step(model.Params(), total)
									model.NextDropoutSeed()
								})
								rm.ChargeDense(int64(3 * model.NumParams()))
								return nil, nil
							},
						},
					},
				}
				if err := pipe.Execute(r, sched.rounds*sched.trainPerRound); err != nil {
					return err
				}
				lossSums[r.ID][epoch] = lossSum
				lossCounts[r.ID][epoch] = lossN
				if cfg.TrackVal && r.ID == 0 {
					epochParams[epoch] = append([]float64(nil), model.Params()...)
				}
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

	// Restart driver. A clean run is exactly one attempt — when no plan
	// and no interval are configured the loop body reduces to the
	// pre-resilience code path, bit-identical. After a fault-class
	// failure the fired plan entry is retired (the restored timeline
	// must not re-fire it forever), the latest complete checkpoint is
	// decoded, and the next attempt resumes from its epoch; without a
	// checkpoint the deterministic initial state is rebuilt and training
	// restarts from scratch. Every restart removes one plan entry, so
	// the loop terminates.
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
		loss, lossN := AggregateLoss(lossSums, lossCounts, e)
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
		if cfg.TrackVal && epochParams[e] != nil {
			epochs[e].ValAccuracy = Evaluate(d, epochParams[e], cfg, d.Val, nil)
		}
	}
	return &Result{Epochs: epochs, Cluster: res, Params: finalParams, Cfg: cfg,
		EffectiveK: sched.effectiveBulk(), Recovery: rec}, nil
}

// AggregateLoss folds per-rank loss sums into the global batch-weighted
// mean for one epoch: sum of all ranks' loss sums over the total number
// of counted batches. A rank without a real batch that epoch carries
// zero weight; rank 0's local average is NOT the epoch loss whenever
// batches divide unevenly across ranks.
func AggregateLoss(sums [][]float64, counts [][]int, epoch int) (float64, int) {
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
