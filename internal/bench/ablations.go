package bench

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distsample"
	"repro/internal/pipeline"
	"repro/internal/quality"
)

// AmortizationRow is one point of the bulk-size sweep: simulated
// sampling time for an epoch when minibatches are sampled in bulks of
// size k.
type AmortizationRow struct {
	K       int
	SimTime float64
}

// Amortization sweeps the bulk size k on one device, quantifying the
// per-batch overhead amortization that motivates Section 4: sampling
// k batches in one matrix call pays kernel-launch overheads once per
// bulk instead of once per batch.
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
		if k <= 0 {
			k = len(batches)
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
		fmt.Fprintf(w, "%6d %14.5f\n", row.K, row.SimTime)
	}
	return rows, nil
}

// CacheRow is one point of the feature-cache sweep.
type CacheRow struct {
	Policy    string
	Frac      float64
	FetchTime float64
}

// CacheSweep measures feature-fetch time under the caching extension
// (Section 8.1.2's SALIENT++ suggestion) across policies and cache
// sizes.
func CacheSweep(w io.Writer, dataset string, p int, fracs []float64, o Options) ([]CacheRow, error) {
	o = o.withDefaults()
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Feature-cache sweep, dataset=%s p=%d\n", dataset, p)
	fmt.Fprintf(w, "%-14s %6s %12s\n", "policy", "frac", "fetch (s)")
	var rows []CacheRow
	run := func(policy cache.Policy, frac float64) error {
		res, err := pipeline.Run(d, pipeline.Config{
			P: p, C: 1, MaxBatches: o.MaxBatches, Seed: o.Seed, Model: o.Model,
			CachePolicy: policy, CacheFrac: frac,
		})
		if err != nil {
			return err
		}
		row := CacheRow{Policy: policy.String(), Frac: frac, FetchTime: res.LastEpoch().FeatureFetch}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-14s %6.2f %12.5f\n", row.Policy, row.Frac, row.FetchTime)
		return nil
	}
	if err := run(cache.None, 0); err != nil {
		return nil, err
	}
	for _, frac := range fracs {
		if err := run(cache.StaticDegree, frac); err != nil {
			return nil, err
		}
	}
	for _, frac := range fracs {
		if err := run(cache.LRU, frac); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// SparsityRow compares the sparsity-aware and oblivious 1.5D SpGEMM.
type SparsityRow struct {
	Dataset        string
	P, C           int
	AwareTime      float64
	ObliviousTime  float64
	AwareBytes     int64
	ObliviousBytes int64
}

// SparsityAblation compares Algorithm 2's sparsity-aware row fetching
// against the sparsity-oblivious full-block broadcast (the design
// choice Section 5.2.1 motivates with Ballard et al.'s analysis).
func SparsityAblation(w io.Writer, dataset string, p, c int, o Options) (*SparsityRow, error) {
	o = o.withDefaults()
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	measure := func(aware bool) (float64, int64, error) {
		res, err := RunPartitionedSampling(d, core.SAGE{}, d.Fanouts, p, c, aware, o)
		if err != nil {
			return 0, 0, err
		}
		return res.SimTime, bytesSent(res), nil
	}
	at, ab, err := measure(true)
	if err != nil {
		return nil, err
	}
	ot, ob, err := measure(false)
	if err != nil {
		return nil, err
	}
	row := &SparsityRow{Dataset: dataset, P: p, C: c,
		AwareTime: at, ObliviousTime: ot, AwareBytes: ab, ObliviousBytes: ob}
	fmt.Fprintf(w, "Sparsity-aware vs oblivious 1.5D SpGEMM, dataset=%s p=%d c=%d\n", dataset, p, c)
	fmt.Fprintf(w, "  aware:     %.5fs, %d bytes sent\n", at, ab)
	fmt.Fprintf(w, "  oblivious: %.5fs, %d bytes sent\n", ot, ob)
	fmt.Fprintf(w, "  byte reduction: %.2fx\n", float64(ob)/float64(ab))
	return row, nil
}

// PartitionRow compares the 1D block-row distributed SpGEMM baseline
// against the paper's 1.5D algorithm at one GPU count.
type PartitionRow struct {
	P, C          int
	OneDTime      float64
	OneDBytes     int64
	FifteenDTime  float64
	FifteenDBytes int64
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

// PartitionAblation supports the Section 5.2 design choice ("prior
// work has shown 1.5D algorithms generally outperform other schemes"):
// it runs bulk SAGE sampling under both partitionings and reports time
// and traffic.
func PartitionAblation(w io.Writer, dataset string, ps []int, o Options) ([]PartitionRow, error) {
	o = o.withDefaults()
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "1D vs 1.5D distributed SpGEMM, dataset=%s\n", dataset)
	fmt.Fprintf(w, "%5s %3s %12s %14s %12s %14s\n", "p", "c", "1D time", "1D bytes", "1.5D time", "1.5D bytes")
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

		row := PartitionRow{P: p, C: c,
			OneDTime: res1.SimTime, OneDBytes: bytesSent(res1),
			FifteenDTime: res2.SimTime, FifteenDBytes: bytesSent(res2)}
		rows = append(rows, row)
		fmt.Fprintf(w, "%5d %3d %12.5f %14d %12.5f %14d\n",
			p, c, row.OneDTime, row.OneDBytes, row.FifteenDTime, row.FifteenDBytes)
	}
	return rows, nil
}

// VarianceRow compares samplers' estimator error at equal budget.
type VarianceRow struct {
	Sampler     string
	Fanout      int
	MSE         float64
	RelativeStd float64
	Budget      float64
}

// SamplerVariance measures one-layer aggregation error (MSE against
// exact mean aggregation) for each sampler across fanouts — the
// statistical quality dimension of the sampler-taxonomy discussion
// (Section 2.2).
func SamplerVariance(w io.Writer, dataset string, fanouts []int, o Options) ([]VarianceRow, error) {
	o = o.withDefaults()
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	seeds := d.Batches()[0]
	const reps = 25
	fmt.Fprintf(w, "Sampler aggregation error, dataset=%s (%d seeds, %d reps)\n", dataset, len(seeds), reps)
	fmt.Fprintf(w, "%-10s %7s %12s %12s %10s\n", "sampler", "fanout", "mse", "rel-std", "budget")
	var rows []VarianceRow
	for _, entry := range core.Samplers {
		s := entry.New(d.Graph)
		for _, fan := range fanouts {
			e := quality.MeasureAggregationError(s, d.Graph.Adj, d.Features, seeds, fan, reps, o.Seed)
			row := VarianceRow{
				Sampler:     s.Name(),
				Fanout:      fan,
				MSE:         e.MSE,
				RelativeStd: quality.RelativeStd(e, d.Graph.Adj, d.Features, seeds),
				Budget:      quality.FrontierBudget(s, d.Graph.Adj, seeds, fan, o.Seed),
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-10s %7d %12.6f %12.4f %10.1f\n",
				row.Sampler, row.Fanout, row.MSE, row.RelativeStd, row.Budget)
		}
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

// SensitivityRow compares a headline result under two cost models.
type SensitivityRow struct {
	ModelName string
	P         int
	OursTotal float64
	Quiver    float64
	Speedup   float64
}

// Sensitivity reruns the Figure 4 comparison under a different machine
// model (PCIe workstation instead of the paper's NVLink/Slingshot
// supercomputer). Conclusions that survive the swap are robust to the
// interconnect; those that do not are artifacts of it.
func Sensitivity(w io.Writer, dataset string, ps []int, o Options) ([]SensitivityRow, error) {
	o = o.withDefaults()
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	models := []struct {
		name  string
		model cluster.CostModel
	}{
		{"perlmutter", cluster.Perlmutter()},
		{"workstation", cluster.Workstation()},
	}
	fmt.Fprintf(w, "Cost-model sensitivity, dataset=%s\n", dataset)
	fmt.Fprintf(w, "%-12s %5s %12s %12s %8s\n", "machine", "p", "ours", "quiver", "speedup")
	var rows []SensitivityRow
	for _, m := range models {
		for _, p := range ps {
			ours, err := pipeline.Run(d, pipeline.Config{
				P: p, C: CFor(p), K: KFor(p, d.NumBatches()),
				MaxBatches: o.MaxBatches, Seed: o.Seed, Model: m.model,
			})
			if err != nil {
				return nil, err
			}
			q, err := baseline.RunQuiver(d, baseline.QuiverConfig{
				P: p, MaxBatches: o.MaxBatches, Seed: o.Seed, Model: m.model,
			})
			if err != nil {
				return nil, err
			}
			row := SensitivityRow{ModelName: m.name, P: p,
				OursTotal: ours.LastEpoch().Total, Quiver: q.LastEpoch().Total}
			if row.OursTotal > 0 {
				row.Speedup = row.Quiver / row.OursTotal
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-12s %5d %12.5f %12.5f %7.2fx\n",
				m.name, p, row.OursTotal, row.Quiver, row.Speedup)
		}
	}
	return rows, nil
}

// StragglerRow quantifies bulk-synchronous sensitivity to one slow
// device.
type StragglerRow struct {
	Slowdown float64
	Epoch    float64
}

// StragglerSensitivity reruns a pipeline epoch with rank 0 slowed by
// increasing factors: the BSP schedule of Section 6 ("all GPUs
// participate in a single step simultaneously before advancing") is
// bound by its slowest member, so epoch time should track the
// straggler nearly linearly for compute-bound phases.
func StragglerSensitivity(w io.Writer, dataset string, p int, factors []float64, o Options) ([]StragglerRow, error) {
	o = o.withDefaults()
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Straggler sensitivity, dataset=%s p=%d (rank 0 slowed)\n", dataset, p)
	fmt.Fprintf(w, "%9s %12s\n", "slowdown", "epoch (s)")
	var rows []StragglerRow
	for _, f := range factors {
		model := o.Model
		if f > 1 {
			model.Stragglers = map[int]float64{0: f}
		}
		res, err := pipeline.Run(d, pipeline.Config{
			P: p, C: CFor(p), MaxBatches: o.MaxBatches, Seed: o.Seed, Model: model,
		})
		if err != nil {
			return nil, err
		}
		row := StragglerRow{Slowdown: f, Epoch: res.LastEpoch().Total}
		rows = append(rows, row)
		fmt.Fprintf(w, "%9.1f %12.5f\n", f, row.Epoch)
	}
	return rows, nil
}
