package bench

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distsample"
	"repro/internal/pipeline"
)

// AmortizationRow is one point of the bulk-size sweep: simulated
// sampling time for an epoch when minibatches are sampled in bulks of
// size K, the effective bulk size (at most the epoch's batch count).
type AmortizationRow struct {
	K       int
	SimTime float64
}

// Amortization sweeps the bulk size k on one device, quantifying the
// per-batch overhead amortization that motivates Section 4: sampling
// k batches in one matrix call pays kernel-launch overheads once per
// bulk instead of once per batch. A k of 0 or beyond the batch count is
// one bulk of the whole epoch, printed as k=all like Figure 4; each
// effective bulk size runs once.
func Amortization(w io.Writer, dataset string, ks []int, o Options) ([]AmortizationRow, error) {
	o = o.withDefaults()
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	batches := Batches(d, o.MaxBatches)
	fmt.Fprintf(w, "Bulk-size amortization sweep, dataset=%s (%d batches)\n", dataset, len(batches))
	fmt.Fprintf(w, "%6s %14s\n", "k", "sim sampling s")
	var rows []AmortizationRow
	for _, k := range ks {
		if k <= 0 || k > len(batches) {
			k = len(batches)
		}
		if slices.ContainsFunc(rows, func(r AmortizationRow) bool { return r.K == k }) {
			continue
		}
		cl := cluster.New(1, o.Model)
		res, err := cl.Run(func(r *cluster.Rank) error {
			r.SetPhase("sampling")
			for lo := 0; lo < len(batches); lo += k {
				hi := lo + k
				if hi > len(batches) {
					hi = len(batches)
				}
				bs := core.SampleBulk(core.SAGE{}, d.Graph.Adj, batches[lo:hi], d.Fanouts, o.Seed)
				r.ChargeSparse(bs.Cost.Total())
				r.ChargeKernels(bs.Cost.Kernels)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		row := AmortizationRow{K: k, SimTime: res.Phase("sampling")}
		rows = append(rows, row)
		kLabel := fmt.Sprint(k)
		if k == len(batches) {
			kLabel = "all"
		}
		fmt.Fprintf(w, "%6s %14.5f\n", kLabel, row.SimTime)
	}
	return rows, nil
}

// PartitionRow compares the 1D block-row distributed SpGEMM baseline
// against the paper's 1.5D algorithm at one GPU count, the latter both
// sparsity-aware (Algorithm 2's row fetching) and sparsity-oblivious
// (full block-row broadcast).
type PartitionRow struct {
	P, C           int
	OneDTime       float64
	OneDBytes      int64
	FifteenDTime   float64
	FifteenDBytes  int64
	ObliviousTime  float64
	ObliviousBytes int64
}

// RunOneDSampling measures one bulk GraphSAGE sampling run under the 1D
// block-row partitioning — the baseline the 1.5D algorithm is compared
// against (sampling only, like RunPartitionedSampling).
func RunOneDSampling(d *datasets.Dataset, p, maxBatches int, seed int64, model cluster.CostModel) (*cluster.Result, error) {
	cl := cluster.New(p, model)
	world := cl.World()
	oneD := distsample.NewOneDSet(p, d.Graph.Adj)
	batches := Batches(d, maxBatches)
	return cl.Run(func(r *cluster.Rank) error {
		local := distsample.ReplicatedBatches(p, r.ID, batches)
		distsample.SampleSAGE1D(r, oneD[r.ID], world, local, d.Fanouts, seed)
		return nil
	})
}

// PartitionAblation supports the Section 5.2 design choices ("prior
// work has shown 1.5D algorithms generally outperform other schemes",
// and Section 5.2.1's sparsity-aware row fetching over the oblivious
// broadcast): it runs bulk SAGE sampling under the 1D partitioning and
// both 1.5D variants and reports time and traffic.
func PartitionAblation(w io.Writer, dataset string, ps []int, o Options) ([]PartitionRow, error) {
	o = o.withDefaults()
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "1D vs 1.5D distributed SpGEMM (1.5D sparsity-aware and oblivious), dataset=%s\n", dataset)
	fmt.Fprintf(w, "%5s %3s %12s %14s %12s %14s %14s %15s\n", "p", "c",
		"1D time", "1D bytes", "1.5D time", "1.5D bytes", "oblivious time", "oblivious bytes")
	var rows []PartitionRow
	for _, p := range ps {
		c := CFor(p) / 2
		if c < 2 {
			c = 2
		}
		for (p/c)%c != 0 && c > 1 {
			c /= 2
		}
		res1, err := RunOneDSampling(d, p, o.MaxBatches, o.Seed, o.Model)
		if err != nil {
			return nil, err
		}
		res2, err := RunPartitionedSampling(d, core.SAGE{}, d.Fanouts, p, c, true, o)
		if err != nil {
			return nil, err
		}
		res3, err := RunPartitionedSampling(d, core.SAGE{}, d.Fanouts, p, c, false, o)
		if err != nil {
			return nil, err
		}

		row := PartitionRow{P: p, C: c,
			OneDTime: res1.SimTime, OneDBytes: bytesSent(res1),
			FifteenDTime: res2.SimTime, FifteenDBytes: bytesSent(res2),
			ObliviousTime: res3.SimTime, ObliviousBytes: bytesSent(res3)}
		rows = append(rows, row)
		fmt.Fprintf(w, "%5d %3d %12.5f %14d %12.5f %14d %14.5f %15d\n",
			p, c, row.OneDTime, row.OneDBytes, row.FifteenDTime, row.FifteenDBytes,
			row.ObliviousTime, row.ObliviousBytes)
	}
	return rows, nil
}

// OverlapRow reports the benefit the overlapped (software-pipelined)
// schedule extracts: with sampling, feature fetch and propagation on
// concurrent streams the epoch is bounded below by the busiest stream,
// max(sampling, fetch, prop), instead of the bulk-synchronous sum.
type OverlapRow struct {
	Dataset string
	// Algorithm is "replicated" or "partitioned": with stream-safe
	// collectives the 1.5D partitioned schedule overlaps too, its
	// collective-bearing sampling stage prefetching on its own stream
	// and communicator clones.
	Algorithm  string
	P          int
	Sequential float64
	// Overlapped is the analytic bound max(sampling, fetch, prop):
	// the busiest stream of the three-stage engine.
	Overlapped float64
	// Measured is the staged engine's overlapped schedule
	// (pipeline.Config.Overlap): the epoch makespan across the
	// sampling, fetch and propagation streams.
	Measured float64
	// Stall is the exposed (un-hidden) prefetch latency of the
	// measured schedule — what the consumer streams waited out.
	Stall   float64
	Speedup float64
}

// partitionedCFor shrinks the Figure 4 replication factor until it
// satisfies the 1.5D grid constraint c^2 | p.
func partitionedCFor(p int) int {
	c := CFor(p)
	for c > 1 && (p%(c*c) != 0 || p%c != 0) {
		c /= 2
	}
	if c < 1 {
		c = 1
	}
	return c
}

// distributedAlgorithms is the pair the overlap and contention studies
// compare: the Graph Replicated pipeline and the sparsity-aware 1.5D
// Graph Partitioned one.
var distributedAlgorithms = []struct {
	name string
	alg  pipeline.Algorithm
}{
	{"replicated", pipeline.GraphReplicated},
	{"partitioned", pipeline.GraphPartitioned},
}

// quarterEpochConfig is the training run the overlap and contention
// studies measure for one algorithm at p GPUs: the Figure 4 replication
// factor (shrunk to a valid grid for the partitioned algorithm) and a
// quarter-epoch bulk, so the schedule has rounds to pipeline.
func (o Options) quarterEpochConfig(d *datasets.Dataset, alg pipeline.Algorithm, p int) pipeline.Config {
	c := CFor(p)
	if alg == pipeline.GraphPartitioned {
		c = partitionedCFor(p)
	}
	return pipeline.Config{
		P: p, C: c, K: QuarterEpochBulk(len(Batches(d, o.MaxBatches)), p),
		Algorithm:     alg,
		SparsityAware: alg == pipeline.GraphPartitioned,
		MaxBatches:    o.MaxBatches, Seed: o.Seed, Model: o.Model,
	}
}

// OverlapAnalysis measures the staged engine's overlapped schedule
// against the bulk-synchronous one for both distributed algorithms —
// the Graph Replicated pipeline (communication-free sampling) and,
// with stream-safe collectives, the 1.5D Graph Partitioned pipeline
// (collective-bearing sampling on its own stream and communicator
// clones) — alongside the analytic busiest-stream bound.
func OverlapAnalysis(w io.Writer, o Options) ([]OverlapRow, error) {
	o = o.withDefaults()
	fmt.Fprintf(w, "Overlap: sampling and fetch pipelined against propagation (staged engine)\n")
	fmt.Fprintf(w, "%-10s %-12s %5s %12s %12s %12s %12s %8s\n",
		"dataset", "algorithm", "p", "sequential", "bound", "measured", "stall", "speedup")
	var rows []OverlapRow
	for _, name := range datasets.Names() {
		d, err := datasets.ByName(name, o.Profile)
		if err != nil {
			return nil, err
		}
		for _, algo := range distributedAlgorithms {
			for _, p := range o.gpus(figureGPUs) {
				cfg := o.quarterEpochConfig(d, algo.alg, p)
				res, err := pipeline.Run(d, cfg)
				if err != nil {
					return nil, err
				}
				e := res.LastEpoch()
				seq := e.Total
				over := e.Sampling
				if e.FeatureFetch > over {
					over = e.FeatureFetch
				}
				if e.Propagation > over {
					over = e.Propagation
				}
				ovCfg := cfg
				ovCfg.Overlap = true
				ovRes, err := pipeline.Run(d, ovCfg)
				if err != nil {
					return nil, err
				}
				row := OverlapRow{Dataset: name, Algorithm: algo.name, P: p,
					Sequential: seq,
					Overlapped: over, Measured: ovRes.LastEpoch().Total,
					Stall: ovRes.LastEpoch().Stall}
				if row.Measured > 0 {
					row.Speedup = seq / row.Measured
				}
				rows = append(rows, row)
				fmt.Fprintf(w, "%-10s %-12s %5d %12.5f %12.5f %12.5f %12.5f %7.2fx\n",
					name, algo.name, p, seq, over, row.Measured, row.Stall, row.Speedup)
			}
		}
	}
	return rows, nil
}
