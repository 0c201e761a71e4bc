package pipeline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distsample"
	"repro/internal/engine"
	"repro/internal/gnn"
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

// hiddenWidth is the width of every hidden layer of the trained model.
const hiddenWidth = 64

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

	Sampler string // a core.Samplers key; empty selects the first

	// Dropout applies inverted dropout at this rate on hidden
	// activations during training (0 disables).
	Dropout float64

	// CachePolicy enables per-rank feature caching in the fetch step
	// (the SALIENT++-style extension of Section 8.1.2). CacheFrac is
	// the per-rank cache capacity as a fraction of the vertex count, in
	// (0, 1] whenever a policy is set.
	CachePolicy cache.Policy
	CacheFrac   float64

	Epochs     int
	LR         float64
	MaxBatches int // process at most this many global batches per epoch (0 = all); timings are extrapolated

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

	// Derived by withDefaults, the one place Sampler is looked up: the
	// table row's sampler for the dataset's graph and the per-layer
	// sizes it draws at the family's preset depth (len(sizes) is the
	// model's depth).
	sampler core.Sampler
	sizes   []int
}

// withDefaults fills zero fields, resolves Sampler through core.Samplers
// and merges the platform fields (Topology, Backend, Faults) into Model
// — the one place a training run's cost model is assembled. The model
// is the platform: the CLIs and the bench harness set their selections
// on it and nowhere else (collective schedules live only there); the
// three fields are literal-friendly overrides for callers that build a
// Config by hand, and win over the model's own entries. The only error
// is an unknown sampler.
func (c Config) withDefaults(d *datasets.Dataset) (Config, error) {
	if c.C <= 0 {
		c.C = 1
	}
	if c.Sampler == "" {
		c.Sampler = core.Samplers[0].Key
	}
	entry, err := core.SamplerByName(c.Sampler)
	if err != nil {
		return c, fmt.Errorf("pipeline: %w", err)
	}
	c.sampler = entry.New(d.Graph)
	c.sizes = core.LayerSizes(c.sampler, d.Fanouts, d.LayerWidth, 0)
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Model.GPUsPerNode == 0 {
		c.Model = cluster.Perlmutter()
	}
	if c.Topology != nil {
		c.Model.Topology = c.Topology
	}
	if c.Backend != cluster.DefaultBackend {
		c.Model.Backend = c.Backend
	}
	if c.Faults != nil {
		c.Model.Faults = c.Faults
	}
	return c, nil
}

// normalised is withDefaults plus the one validation every training
// driver's input passes through: bad input is an error naming the
// field, never a panic inside the first attempt.
func (c Config) normalised(d *datasets.Dataset) (Config, error) {
	c, err := c.withDefaults(d)
	switch {
	case err != nil:
		return c, err
	case c.P <= 0:
		return c, fmt.Errorf("pipeline: p=%d: need at least one rank", c.P)
	case c.P%c.C != 0:
		return c, fmt.Errorf("pipeline: c=%d must divide p=%d", c.C, c.P)
	case c.Algorithm != GraphReplicated && c.Algorithm != GraphPartitioned:
		return c, fmt.Errorf("pipeline: unknown algorithm %d", c.Algorithm)
	case c.Algorithm == GraphPartitioned && (c.P/c.C)%c.C != 0:
		return c, fmt.Errorf("pipeline: partitioned algorithm needs c^2 | p (p=%d c=%d)", c.P, c.C)
	case c.Epochs < 0:
		return c, fmt.Errorf("pipeline: negative epoch count %d", c.Epochs)
	case c.MaxBatches < 0:
		return c, fmt.Errorf("pipeline: negative batch cap MaxBatches=%d (0 = all batches)", c.MaxBatches)
	case !(c.LR > 0):
		return c, fmt.Errorf("pipeline: learning rate %v: must be positive", c.LR)
	case !(c.Dropout >= 0 && c.Dropout < 1):
		return c, fmt.Errorf("pipeline: dropout rate %v outside [0, 1)", c.Dropout)
	case c.CachePolicy != cache.None && !(c.CacheFrac > 0 && c.CacheFrac <= 1):
		return c, fmt.Errorf("pipeline: cache fraction %v outside (0, 1]", c.CacheFrac)
	case c.CkptInterval < 0:
		return c, fmt.Errorf("pipeline: negative checkpoint interval %d", c.CkptInterval)
	}
	if err := c.Model.Collectives.Validate(); err != nil {
		return c, fmt.Errorf("pipeline: %w", err)
	}
	if err := c.Model.Topology.Validate(); err != nil {
		return c, fmt.Errorf("pipeline: %w", err)
	}
	if err := c.Model.Faults.Validate(c.P); err != nil {
		return c, fmt.Errorf("pipeline: %w", err)
	}
	return c, nil
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

// FetchItem is what a sampling stage hands its feature-fetch stage:
// one extracted batch graph and its input frontier (zero for an
// iteration without a real batch).
type FetchItem struct {
	Batch  *core.BatchGraph
	Inputs []int
}

// newModel builds the freshly initialised model the config trains.
func (c Config) newModel(d *datasets.Dataset) *gnn.Model {
	return gnn.NewModel(gnn.Config{
		In:      d.Features.Cols,
		Hidden:  hiddenWidth,
		Classes: d.NumClasses,
		Layers:  len(c.sizes),
		Seed:    c.Seed,
	})
}

// Run simulates cfg.Epochs of distributed minibatch training over the
// dataset and returns per-epoch phase breakdowns. The epoch loop is
// Train's three-stage engine pipeline (bulk sampling → feature fetch →
// propagation) with this file's bulk strategy; Config.Overlap selects
// the software-pipelined schedule, the default is the paper's
// bulk-synchronous one.
func Run(d *datasets.Dataset, cfg Config) (*Result, error) {
	b := &bulk{d: d}
	res, err := Train(d, cfg, Strategy{OptimizerFlopsPerParam: 3, NewAttempt: b.newAttempt})
	if err != nil {
		return nil, err
	}
	res.Cfg, res.EffectiveK = b.cfg, b.sched.effectiveBulk()
	return res, nil
}

// bulk is the paper's strategy: every sampling block samples K/blocks
// minibatches per bulk call (Graph Replicated or 1.5D Graph
// Partitioned), and features are fetched over the process column. It
// keeps the latest attempt's normalised config and schedule for Run.
type bulk struct {
	d     *datasets.Dataset
	cfg   Config
	sched schedule
}

func (b *bulk) newAttempt(cfg Config, batches [][]int, grid *cluster.Grid, stores []*FeatureStore) Attempt {
	d := b.d
	partitioned := cfg.Algorithm == GraphPartitioned
	var parts []*distsample.Partitioned
	if partitioned {
		parts = distsample.NewPartitionedSet(grid, d.Graph.Adj, cfg.SparsityAware)
	}
	sched := makeSchedule(cfg, grid, len(batches))
	b.cfg, b.sched = cfg, sched

	rank := func(r *cluster.Rank) func(int64) (engine.Stage, engine.Stage) {
		store := stores[r.ID]
		var featCache cache.Cache
		if cfg.CachePolicy != cache.None {
			capacity := int(cfg.CacheFrac * float64(d.Graph.NumVertices()))
			featCache = cache.New(cfg.CachePolicy, capacity, d.Graph.Degrees())
		}
		var local [][]int
		trainOffset := 0
		if partitioned {
			local = distsample.LocalBatches(grid, r.ID, batches)
			trainOffset = grid.ColIndex(r.ID)
		} else {
			local = distsample.ReplicatedBatches(cfg.P, r.ID, batches)
		}
		// Feature fetch: all-to-allv over the process column; iterations
		// without a real batch join with empty requests.
		fetch := engine.Stage{
			Name:  PhaseFeatureFetch,
			Queue: 1,
			Run: func(rf *cluster.Rank, idx int, in any) (any, error) {
				it := in.(FetchItem)
				rf.SetPhase(PhaseFeatureFetch)
				return TrainItem{Batch: it.Batch, Feats: store.FetchCached(rf, it.Inputs, featCache)}, nil
			},
		}

		return func(epochSeed int64) (engine.Stage, engine.Stage) {
			// The sampling stage owns the current bulk (and, in overlapped
			// mode, the next one in flight — the double buffer realized by
			// its output queue).
			var cur *core.BulkSample
			var chunk [][]int
			// Sampling (Figure 3 left): one bulk call per round, emitted
			// one extracted minibatch at a time. Every rank calls the same
			// sampler the same number of times; empty chunks still join
			// the partitioned collectives.
			sampling := engine.Stage{
				Name: PhaseSampling,
				// One full round of minibatches buffers downstream while
				// the next round's bulk is sampled: the double-buffered
				// BulkSample handoff.
				Queue: sched.trainPerRound,
				Run: func(rs *cluster.Rank, idx int, _ any) (any, error) {
					round, t := idx/sched.trainPerRound, idx%sched.trainPerRound
					if t == 0 {
						lo := min(round*sched.sampPerRound, len(local))
						hi := min(lo+sched.sampPerRound, len(local))
						chunk = local[lo:hi]
						rs.SetPhase(PhaseSampling)
						rs.PushPhase(PhaseSampling) // nested level for the driver's sub-phases
						if partitioned {
							cur = distsample.SamplePartitioned(rs, parts[rs.ID], cfg.sampler, chunk, cfg.sizes, epochSeed)
						} else {
							cur = distsample.SampleReplicated(rs, cfg.sampler, d.Graph.Adj, chunk, cfg.sizes, epochSeed)
						}
						rs.PopPhase()
					}
					var it FetchItem
					if bi := t*sched.trainStride + trainOffset; bi < len(chunk) {
						it.Batch = cur.ExtractBatch(bi)
						it.Inputs = it.Batch.InputVertices()
					}
					return it, nil
				},
			}
			return sampling, fetch
		}
	}
	att := Attempt{Items: sched.rounds * sched.trainPerRound, Blocks: sched.samplingBlocks, Rank: rank}
	if partitioned {
		att.Release = func() { distsample.ReleasePartitionedSet(parts) }
	}
	return att
}
