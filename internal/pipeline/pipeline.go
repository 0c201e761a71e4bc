package pipeline

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
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
	// Quiver is the baseline the paper beats (Section 7.3): every rank
	// samples its minibatches one at a time on device from a replicated
	// graph, paying the per-batch kernel overheads bulk sampling
	// amortizes, and fetches features from all p ranks (C = 1, no
	// replication locality). It takes GraphSAGE only, and no K.
	Quiver
	// QuiverUVA is Quiver with the graph in host DRAM, sampled through
	// the PCIe link with a unified address space, and hostFeatureFraction
	// of the feature rows served from host memory (Figure 5).
	QuiverUVA
)

// quiver reports whether a is one of the Quiver baseline's modes.
func (a Algorithm) quiver() bool { return a == Quiver || a == QuiverUVA }

// optimizerFlopsPerParam is the dense work every rank charges per
// optimizer step, per model parameter, for the step's memory traffic.
// Known modelling gap (ROADMAP 4(c)): the bulk pipeline charges 3 and
// the Quiver baseline 0, so the baseline's propagation phase is
// undercharged by 3·NumParams flops per step. Levelling it moves every
// Quiver sim_sec and needs the BENCH baselines re-captured.
func (a Algorithm) optimizerFlopsPerParam() int {
	if a.quiver() {
		return 0
	}
	return 3
}

// hostFeatureFraction is the share of feature rows QuiverUVA serves
// from host memory: the 80/20 host/device split quoted in Section 8.1.1.
const hostFeatureFraction = 0.8

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
	// cluster charges under: nil keeps the pure α–β model — no
	// contention, bit-identical to the paper's closed forms — while
	// cluster.PerlmutterTopology or cluster.OversubscribedTopology make
	// links finite, shared resources so concurrent transfers
	// (same-collective members on a shared NIC, prefetch streams
	// against the gradient all-reduce) split bandwidth instead of each
	// charging full β. A selection belongs on Model.Topology; this
	// field, merged into it, stays only because benchmark/ sets it
	// (ROADMAP item 1(b)).
	Topology *cluster.Topology

	// Backend is inert: every run executes on the discrete-event
	// scheduler. benchmark/ still sets it.
	//
	//gnnvet:allow deadexport — shim set by benchmark/ until ROADMAP item 1(b) deletes it
	Backend cluster.Backend

	// Overlap runs the staged-execution engine in its software-
	// pipelined mode: bulk sampling and feature fetching for upcoming
	// minibatches proceed on their own simulated streams (bounded
	// queues, double-buffered BulkSample handoff) while the current
	// minibatch trains, so epoch time becomes the max over concurrent
	// streams instead of the sum of phases. Applies to every
	// algorithm: Graph Replicated and Quiver sampling are
	// communication-free (Section 5.1), and the Graph Partitioned
	// algorithm's collectives run stream-safely on per-stage
	// communicator clones (cluster.Comm.ForStream), so its sampling and
	// feature-fetch stages prefetch on their own streams too. The
	// paper's pipeline is bulk synchronous; this is the natural next
	// optimization its structure permits. Off by default — the
	// sequential schedule is identical to the paper's Figure 3 loop, and
	// either way the training outcome is bit-identical (the schedule
	// moves when work is charged, never what is computed).
	Overlap bool

	Sampler string // a core.Samplers key; empty selects the first

	Epochs     int
	LR         float64
	MaxBatches int // process at most this many global batches per epoch (0 = all); timings are extrapolated

	// Faults is the fail-stop injection plan. When a planned failure
	// fires, the run aborts at the failed rank's simulated fail time,
	// the driver retires the fired entry, restores the latest
	// epoch-boundary checkpoint (or restarts from scratch if
	// CkptInterval is 0) and re-runs — so training always completes,
	// and Result.Recovery reports what the recovery cost. A plan
	// belongs on Model.Faults; this field, merged into it (an explicit
	// Model.Faults wins only when this is nil), stays only because
	// benchmark/ sets it (ROADMAP item 1(b)).
	Faults *cluster.FaultPlan
	// CkptInterval checkpoints the complete resumable state — model
	// parameters, Adam moments, and every rank's simulated-time
	// accounting snapshot — every CkptInterval completed epochs (0
	// disables). Each rank charges the checkpoint's serialized bytes
	// over HostLink at each boundary, so checkpointing costs simulated
	// time whether or not a failure ever fires. With Topology == nil, a
	// failed-and-restored run's Result is bit-identical to an unfailed
	// run with the same interval (the crash row of the differential
	// harness pins this).
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

// withDefaults fills zero fields, resolves Sampler through core.Samplers,
// completes Model with cluster.CostModel.OrPerlmutter — so Result.Cfg
// reports the machine the run used — and merges Topology and Faults
// into it, each winning over the model's own entry when set. The model
// is the platform: the CLIs, the bench harness and a hand-built Config
// set their selections on it; the two fields remain only because
// benchmark/ writes them. The only error is an unknown sampler.
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
	c.Model = c.Model.OrPerlmutter()
	if c.Topology != nil {
		c.Model.Topology = c.Topology
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
	if c.C < 0 {
		return c, fmt.Errorf("pipeline: replication factor C=%d: must be >= 1 (0 means 1)", c.C)
	}
	c, err := c.withDefaults(d)
	_, sage := c.sampler.(core.SAGE)
	switch {
	case err != nil:
		return c, err
	case c.P <= 0:
		return c, fmt.Errorf("pipeline: p=%d: need at least one rank", c.P)
	case c.P%c.C != 0:
		return c, fmt.Errorf("pipeline: c=%d must divide p=%d", c.C, c.P)
	case c.Algorithm < GraphReplicated || c.Algorithm > QuiverUVA:
		return c, fmt.Errorf("pipeline: unknown algorithm %d", c.Algorithm)
	case c.Algorithm == GraphPartitioned && (c.P/c.C)%c.C != 0:
		return c, fmt.Errorf("pipeline: partitioned algorithm needs c^2 | p (p=%d c=%d)", c.P, c.C)
	case c.Algorithm.quiver() && c.C != 1:
		return c, fmt.Errorf("pipeline: quiver fetches from all p ranks: C=%d, want 1", c.C)
	case c.Algorithm.quiver() && c.K != 0:
		return c, fmt.Errorf("pipeline: quiver samples one minibatch per call: K=%d, want 0", c.K)
	case c.Algorithm.quiver() && c.SparsityAware:
		return c, fmt.Errorf("pipeline: quiver has no SparsityAware fetch (partitioned algorithm only)")
	case c.Algorithm.quiver() && !sage:
		return c, fmt.Errorf("pipeline: quiver samples with GraphSAGE only: Sampler=%q", c.Sampler)
	case c.Epochs < 0:
		return c, fmt.Errorf("pipeline: negative epoch count %d", c.Epochs)
	case c.MaxBatches < 0:
		return c, fmt.Errorf("pipeline: negative batch cap MaxBatches=%d (0 = all batches)", c.MaxBatches)
	case !(c.LR > 0) || math.IsInf(c.LR, 1):
		return c, fmt.Errorf("pipeline: learning rate %v: must be positive and finite", c.LR)
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
	// K to fit) can see it. A Quiver run's is P: one minibatch per rank
	// per round.
	EffectiveK int
	// Recovery reports the restart bookkeeping when fault injection or
	// checkpointing was configured (nil otherwise): attempts, fired
	// failures, wasted simulated work. Diagnostic only — the
	// differential harness excludes it from bit-identity comparison.
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
	samplingBlocks int // ranks (replicated, Quiver) or grid rows (partitioned) sharing the batch list
	sampPerRound   int // batches each sampling block handles per bulk round
	rounds         int
	trainPerRound  int // training iterations per round per rank
	trainStride    int // replicated: 1; partitioned: c (row members interleave)
}

// makeSchedule is the schedule of a normalised cfg over totalBatches.
// Quiver is the replicated schedule at K = P: one minibatch per rank
// per round.
func makeSchedule(cfg Config, totalBatches int) schedule {
	s := schedule{trainStride: 1, samplingBlocks: cfg.P}
	if cfg.Algorithm == GraphPartitioned {
		s.samplingBlocks = cfg.P / cfg.C
		s.trainStride = cfg.C
	}
	bulk := cfg.K
	if cfg.Algorithm.quiver() {
		bulk = cfg.P
	}
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

// items is the number of engine items every rank runs per epoch.
func (s schedule) items() int { return s.rounds * s.trainPerRound }

// item is one minibatch on its way through the stages: the sampling
// stage sets its batch graph and input frontier, the feature-fetch
// stage its gathered features. A nil batch marks an iteration without
// a real batch; it contributes zero gradients to the all-reduce.
type item struct {
	batch  *core.BatchGraph
	inputs []int
	// feats is a Fetch result: the propagation stage hands it back to
	// Fetch's free list once the step is done with it.
	feats *dense.Matrix
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

// sampleHook, when set, receives every bulk sample a rank draws, once
// per round: the rank, the round, the rank's chunk of minibatches, the
// per-layer sizes, the epoch's sampling seed and the sample (nil for a
// Quiver rank without a batch that round). It runs on the rank's
// timeline, beside other ranks' timelines, and must only read the
// sample. Only tests set it (the differential harness's sample oracle),
// between runs.
var sampleHook func(rank, round int, chunk [][]int, sizes []int, epochSeed int64, bulk *core.BulkSample)

// newAttempt builds the algorithm's sampling and feature-fetch stages
// for one cluster run of the normalised cfg over the (MaxBatches-
// truncated) global batch list, on the attempt's freshly built grid and
// feature stores (a failed attempt leaves poisoned rendezvous and
// mid-flight arena state behind, so nothing built on them is reused).
//
// stages is called once per rank, on the rank's own task, and returns
// the builder of that rank's two stages for one epoch (seeded with the
// epoch's sampling seed). The stages charge their own phases and may
// drive the grid's row and column communicators; the world
// communicator, the model and the optimizer belong to Run's
// propagation stage. release hands the attempt's reusable run memory
// on; Run calls it once the cluster run has returned without error.
func newAttempt(d *datasets.Dataset, cfg Config, sched schedule, batches [][]int, grid *cluster.Grid, stores []*FeatureStore) (
	stages func(r *cluster.Rank) func(epochSeed int64) (sampling, fetch engine.Stage), release func()) {
	partitioned := cfg.Algorithm == GraphPartitioned
	uva := cfg.Algorithm == QuiverUVA
	release = func() {}
	// sample draws one round's chunk of local minibatches on rs.
	var sample func(rs *cluster.Rank, chunk [][]int, round int, epochSeed int64) *core.BulkSample
	switch {
	case partitioned:
		parts := distsample.NewPartitionedSet(grid, d.Graph.Adj, cfg.SparsityAware)
		release = func() { distsample.ReleasePartitionedSet(parts) }
		sample = func(rs *cluster.Rank, chunk [][]int, _ int, epochSeed int64) *core.BulkSample {
			return distsample.SamplePartitioned(rs, parts[rs.ID], cfg.sampler, chunk, cfg.sizes, epochSeed)
		}
	case cfg.Algorithm.quiver():
		// One bulk call of size one per minibatch, paying full kernel-
		// launch overhead per batch per layer: the cost bulk sampling
		// amortizes.
		sample = func(rs *cluster.Rank, chunk [][]int, round int, epochSeed int64) *core.BulkSample {
			if len(chunk) == 0 {
				return nil
			}
			bulk := core.SampleBulk(cfg.sampler, d.Graph.Adj, chunk, cfg.sizes, epochSeed+int64(round))
			cost := bulk.Cost
			ops := cost.Total()
			if uva {
				// Graph lives in host DRAM: every adjacency row visited
				// crosses PCIe (16 bytes/entry), and the irregular work
				// runs at an effective rate bounded by the host link.
				rs.ChargeLink(cluster.HostLink, cost.ProbFlops*16)
				ops = cost.SampleOps + cost.ExtractOps
			}
			rs.Charge(cluster.Work{SparseOps: ops, Kernels: cost.Kernels})
			return bulk
		}
	default:
		sample = func(rs *cluster.Rank, chunk [][]int, _ int, epochSeed int64) *core.BulkSample {
			return distsample.SampleReplicated(rs, cfg.sampler, d.Graph.Adj, chunk, cfg.sizes, epochSeed)
		}
	}

	stages = func(r *cluster.Rank) func(int64) (engine.Stage, engine.Stage) {
		store := stores[r.ID]
		var local [][]int
		trainOffset := 0
		if partitioned {
			local = distsample.LocalBatches(grid, r.ID, batches)
			trainOffset = grid.ColIndex(r.ID)
		} else {
			local = distsample.ReplicatedBatches(cfg.P, r.ID, batches)
		}
		// Feature fetch: all-to-allv over the process column (the world
		// at C = 1); iterations without a real batch join with empty
		// requests. In UVA mode most rows also cross the host link.
		fetch := engine.Stage{
			Name:  PhaseFeatureFetch,
			Queue: 1,
			Run: func(rf *cluster.Rank, _ int, in any) (any, error) {
				it := in.(item)
				rf.SetPhase(PhaseFeatureFetch)
				it.feats = store.Fetch(rf, it.inputs)
				if uva && it.batch != nil {
					hostRows := int(hostFeatureFraction * float64(len(it.inputs)))
					rf.ChargeLink(cluster.HostLink, int64(hostRows*d.Features.Cols*8))
				}
				return it, nil
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
						cur = sample(rs, chunk, round, epochSeed)
						rs.PopPhase()
						if sampleHook != nil {
							sampleHook(rs.ID, round, chunk, cfg.sizes, epochSeed, cur)
						}
					}
					var it item
					if bi := t*sched.trainStride + trainOffset; bi < len(chunk) {
						it.batch = cur.ExtractBatch(bi)
						it.inputs = it.batch.InputVertices()
					}
					return it, nil
				},
			}
			return sampling, fetch
		}
	}
	return stages, release
}
