package main

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
)

// spec is one benchmark workload: a dataset, a training configuration
// and the entry point it is driven through. Seed, epoch count and cost
// model are filled per run by config.
type spec struct {
	name    string
	why     string
	dataset string
	profile datasets.Profile
	// epochs is the number of epochs one iteration (one pipeline.Run or
	// baseline.RunQuiver call) trains.
	epochs int
	// quiver drives baseline.RunQuiver instead of pipeline.Run; only
	// cfg's P and MaxBatches apply to it.
	quiver bool
	cfg    pipeline.Config
}

// workloads is the normative list; BENCHMARK.json names exactly these.
// Shapes (profile, p, c, K, backend, topology) are the issue's; epochs
// and MaxBatches per iteration are sized so one iteration takes about a
// second on a 2-core host and a whole run fits the acceptance
// pipeline's per-run budget.
var workloads = []spec{
	{
		name:    "replicated-bulk",
		why:     "bulk matrix sampling with the graph replicated, p=8: SpGEMM and ITS kernels dominate, so sparse/core/arena changes and their memory cost show here first",
		dataset: "products", profile: datasets.Bench, epochs: 1,
		cfg: pipeline.Config{P: 8, C: 2, K: 32, MaxBatches: 16},
	},
	{
		name:    "quiver-perbatch",
		why:     "same dataset, p, batches and seed through the Quiver baseline: one k=1 sampling call per minibatch, so a bulk-tuned kernel change that taxes small calls shows as a regression",
		dataset: "products", profile: datasets.Bench, epochs: 1, quiver: true,
		cfg: pipeline.Config{P: 8, MaxBatches: 16},
	},
	{
		name:    "partitioned-dense",
		why:     "the 1.5D graph-partitioned algorithm on the densest graph, p=16 c=2: only workload running SpGEMM15D, stage arenas and grid row/column collectives",
		dataset: "protein", profile: datasets.Small, epochs: 1,
		cfg: pipeline.Config{P: 16, C: 2, K: pipeline.KAll,
			Algorithm: pipeline.GraphPartitioned, SparsityAware: true},
	},
	{
		name:    "largep-des",
		why:     "p=2048 on the discrete-event backend: kernels do little, so rendezvous, park/wake, fetch bookkeeping and allocation cost show here and nowhere else",
		dataset: "products", profile: datasets.Scale, epochs: 1,
		cfg: pipeline.Config{P: 2048, C: 8, K: pipeline.KAll, Backend: cluster.DESBackend},
	},
	{
		name:    "contended-overlap",
		why:     "p=128 with forked streams over an oversubscribed fabric: the only workload whose simulated time depends on the contention ledger and the overlap schedule",
		dataset: "products", profile: datasets.Scale, epochs: 1,
		cfg: pipeline.Config{P: 128, C: 8, K: pipeline.KAll, Backend: cluster.DESBackend,
			Topology: cluster.OversubscribedTopology(4), Overlap: true},
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// load returns the workload's input: the profile's dataset with its
// training set replaced by a seeded shuffle of a copy, so the seed picks
// which vertices fall into which minibatch (and, under MaxBatches, which
// are trained on at all). The cached dataset itself is never written.
func (s spec) load(seed int64) (*datasets.Dataset, error) {
	base, err := datasets.ByName(s.dataset, s.profile)
	if err != nil {
		return nil, err
	}
	d := *base
	d.Train = append([]int(nil), base.Train...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(d.Train), func(i, j int) { d.Train[i], d.Train[j] = d.Train[j], d.Train[i] })
	return &d, nil
}

// config is the workload's run configuration for a seed, under the
// Perlmutter cost model.
func (s spec) config(seed int64) pipeline.Config {
	c := s.cfg
	c.Seed = seed
	c.Epochs = s.epochs
	if c.C == 0 {
		c.C = 1
	}
	return c
}

// costModel is the cost model a cluster built for cfg charges under —
// what pipeline.Run and RunQuiver assemble internally from the same
// fields.
func costModel(cfg pipeline.Config) cluster.CostModel {
	m := cluster.Perlmutter()
	m.Topology = cfg.Topology
	m.Backend = cfg.Backend
	return m
}

// exec runs one iteration of the workload under cfg.
func (s spec) exec(d *datasets.Dataset, cfg pipeline.Config) (*pipeline.Result, error) {
	if !s.quiver {
		return pipeline.Run(d, cfg)
	}
	return baseline.RunQuiver(d, baseline.QuiverConfig{
		P: cfg.P, Epochs: cfg.Epochs, MaxBatches: cfg.MaxBatches, Seed: cfg.Seed,
		Topology: cfg.Topology, Backend: cfg.Backend,
		Faults: cfg.Faults, CkptInterval: cfg.CkptInterval,
	})
}

// batches is the global minibatch list one epoch of the workload trains.
func (s spec) batches(d *datasets.Dataset) [][]int {
	b := d.Batches()
	if s.cfg.MaxBatches > 0 && s.cfg.MaxBatches < len(b) {
		b = b[:s.cfg.MaxBatches]
	}
	return b
}

// metricDef names one reported metric. Bound applies to end-to-end
// metrics only: the share of the baseline's median by which the metric
// may worsen before it counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Exact marks a simulated or arithmetic result that is a pure
	// function of the seed: runs of two commits on the same seed must
	// agree to rel 1e-9, whatever the bound across seeds is.
	Exact bool
}

// endToEnd lists what a user of the simulator sees, per workload.
//
// Bounds are set from measured spreads (interquartile distance over ten
// runs on ten seeds, as a share of the median), each at least twice the
// worst workload's. Host-time metrics and peak RSS sit at 25%: the
// sandbox's speed moves by tens of percent over tens of seconds, which
// no statistic over a 10-second window removes. The counters and the
// simulated results repeat exactly on one seed; their bounds only have
// to cover how much the work itself differs from seed to seed (≤ 3.1%).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "epoch_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_batches_per_s", Unit: "batches/s", Better: "higher", Bound: 0.25},
	{Name: "sim_epoch_s", Unit: "s", Better: "lower", Bound: 0.10, Exact: true},
	{Name: "train_loss", Unit: "nats", Better: "lower", Bound: 0.10, Exact: true},
	{Name: "alloc_bytes_per_epoch", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "allocs_per_epoch", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_bytes", Unit: "B", Better: "lower", Bound: 0.25},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// perLayer lists the traced run's per-layer metrics; every workload
// emits every one. Host-clock metrics are in s/us/ns, simulated-clock
// metrics carry "sim" in their name, counts are exact.
var perLayer = concat(
	lower("s", "datasets.build_s"),

	lower("s", "sparse.spgemm_s"),
	lower("count", "sparse.spgemm_flops", "sparse.spgemm_out_nnz"),
	higher("Mflop/s", "sparse.spgemm_mflops_per_s"),

	lower("s", "core.build_q_s", "core.norm_s", "core.finish_step_s", "core.extract_batch_s"),
	lower("count", "core.prob_flops", "core.sample_ops", "core.extract_ops", "core.kernel_launches"),
	higher("rows/s", "core.rows_sampled_per_s"),

	lower("s", "distsample.sampling_run_wall_s", "distsample.sampling_run_cpu_s",
		"distsample.sim_sampling_s", "distsample.sim_sampling_comm_s"),
	lower("B", "distsample.comm_bytes"),

	lower("s", "gnn.gather_features_s", "gnn.forward_s", "gnn.loss_s", "gnn.backward_s"),
	lower("count", "gnn.dense_flops"),
	higher("Mflop/s", "gnn.mflops_per_s"),
	lower("s", "dense.adam_step_s"),
	lower("count", "dense.adam_params"),

	lower("s", "pipeline.fetch_run_wall_s", "pipeline.fetch_run_cpu_s"),
	lower("count", "pipeline.fetch_rows"),
	lower("ratio", "pipeline.fetch_unique_ratio"),
	lower("s", "pipeline.sim_sampling_s", "pipeline.sim_fetch_s", "pipeline.sim_prop_s",
		"pipeline.sim_stall_s", "pipeline.sim_fetch_comm_s"),
	lower("count", "pipeline.effective_k"),
	lower("s", "pipeline.unattributed_cpu_s"),
	lower("ratio", "pipeline.cpu_share_sampling", "pipeline.cpu_share_fetch",
		"pipeline.cpu_share_propagation", "pipeline.cpu_share_collectives"),

	lower("s", "engine.sequential_twin_sim_s", "engine.sequential_twin_wall_s"),

	lower("s", "cluster.new_s"),
	lower("count", "cluster.allreduce_calls", "cluster.alltoallv_calls"),
	lower("us", "cluster.allreduce_us_per_rank_call", "cluster.alltoallv_us_per_rank_call"),
	lower("s", "cluster.goroutine.collectives_wall_s", "cluster.des.collectives_wall_s"),
	lower("count", "cluster.collective_calls"),
	lower("B", "cluster.bytes_sent", "cluster.bytes_intra_node", "cluster.bytes_inter_node", "cluster.bytes_host"),
	lower("count", "cluster.ledger_peak_spans"),

	lower("ns", "sim.park_wake_ns"),

	lower("B", "graphio.ckpt_bytes"),
	lower("s", "graphio.ckpt_write_s", "graphio.ckpt_read_s"),

	lower("ratio", "resilience.recovery_wall_ratio"),
	lower("s", "resilience.wasted_sim_s"),
	lower("count", "resilience.attempts"),

	lower("s", "process.epoch_cpu_s", "process.gc_cpu_s", "process.gc_pause_s"),
	lower("count", "process.gc_cycles_per_epoch"),
	lower("B", "process.heap_sys_bytes"),
	lower("ratio", "trace.overhead_ratio"),
)
