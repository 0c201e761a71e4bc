// Package bench is the experiment harness: one entry point per table
// and figure of the paper's evaluation (Section 8), each printing the
// same rows/series the paper reports. Absolute numbers come from the
// simulated cost model, so the meaningful comparison is the shape —
// who wins, by what factor, and where scaling stops — not the raw
// seconds.
package bench

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distsample"
	"repro/internal/pipeline"
)

// Options tunes experiment size so the same harness serves unit tests
// (Tiny), CI (Small) and the recorded results (Bench).
type Options struct {
	Profile datasets.Profile
	// GPUCounts is the GPU axis the experiment sweeps (single-count
	// experiments run the first entry). nil means the experiment's own
	// default axis — the one its Experiments entry states.
	GPUCounts  []int
	MaxBatches int // per-epoch batch cap with extrapolation; 0 = all
	// Seed seeds every run of the experiment as given; 0 is a seed
	// like any other.
	Seed int64

	// Model is the platform every simulated cluster of the experiment
	// charges under, and the only carrier of machine selections:
	// collective schedules, topology and fault plan
	// ride on it (cliutil.RegisterPlatformFlags assembles it from the
	// CLI flags). A model with no machine is completed by
	// cluster.CostModel.OrPerlmutter, keeping its selections. Experiments
	// that sweep a selection (collectives, tprob, contention, scaling)
	// override that one field per row.
	Model cluster.CostModel

	// Epochs is the accuracy experiment's training length (0 = 15).
	Epochs int
}

// gpus returns the GPU axis of an experiment whose default axis is def:
// the caller's explicit list when one was given, whatever its length.
func (o Options) gpus(def []int) []int {
	if len(o.GPUCounts) > 0 {
		return o.GPUCounts
	}
	return def
}

// bytesSent sums the bytes every rank of a run injected.
func bytesSent(res *cluster.Result) int64 {
	var total int64
	for _, s := range res.Ranks {
		total += s.BytesSent
	}
	return total
}

// cFor mirrors the paper's per-GPU-count replication factors in the
// Figure 4 annotations: replication grows with aggregate memory.
func cFor(p int) int {
	switch {
	case p <= 4:
		return 1
	case p <= 8:
		return 2
	case p <= 32:
		return 4
	default:
		return 8
	}
}

// kFor mirrors the paper's bulk sizes: small GPU counts lack the
// memory to sample every minibatch in one bulk (k < all); larger
// counts sample all at once (k=all, reported as 0 here).
func kFor(p, totalBatches int) int {
	if p <= 4 {
		return totalBatches / 2
	}
	return 0 // all
}

// Fig4Row is one bar of Figure 4: our pipeline's per-epoch breakdown
// plus the Quiver baseline total at the same GPU count.
type Fig4Row struct {
	Dataset      string
	P, C, K      int
	Sampling     float64
	FeatureFetch float64
	Propagation  float64
	Total        float64
	QuiverTotal  float64
	Speedup      float64
}

// Fig4 reproduces Figure 4: Graph Replicated pipeline vs the Quiver
// baseline across GPU counts on all three datasets.
func Fig4(w io.Writer, o Options) ([]Fig4Row, error) {
	var rows []Fig4Row
	fmt.Fprintf(w, "Figure 4: Graph Replicated pipeline vs Quiver (per-epoch seconds, simulated)\n")
	fmt.Fprintf(w, "%-10s %5s %3s %6s %10s %10s %10s %10s %10s %8s\n",
		"dataset", "p", "c", "k", "sampling", "fetch", "prop", "total", "quiver", "speedup")
	for _, name := range datasets.Names() {
		d, err := datasets.ByName(name, o.Profile)
		if err != nil {
			return nil, err
		}
		for _, p := range o.gpus(figureGPUs) {
			c := cFor(p)
			k := kFor(p, d.NumBatches())
			res, err := pipeline.Run(d, pipeline.Config{
				P: p, C: c, K: k,
				MaxBatches: o.MaxBatches,
				Seed:       o.Seed,
				Model:      o.Model,
			})
			if err != nil {
				return nil, err
			}
			q, err := pipeline.Run(d, pipeline.Config{
				P: p, Algorithm: pipeline.Quiver,
				MaxBatches: o.MaxBatches, Seed: o.Seed, Model: o.Model,
			})
			if err != nil {
				return nil, err
			}
			e := res.LastEpoch()
			row := Fig4Row{
				Dataset: name, P: p, C: c, K: k,
				Sampling: e.Sampling, FeatureFetch: e.FeatureFetch,
				Propagation: e.Propagation, Total: e.Total,
				QuiverTotal: q.LastEpoch().Total,
			}
			if row.Total > 0 {
				row.Speedup = row.QuiverTotal / row.Total
			}
			rows = append(rows, row)
			kLabel := fmt.Sprintf("%d", k)
			if k == 0 {
				kLabel = "all"
			}
			fmt.Fprintf(w, "%-10s %5d %3d %6s %10.4f %10.4f %10.4f %10.4f %10.4f %7.2fx\n",
				name, p, c, kLabel, e.Sampling, e.FeatureFetch, e.Propagation,
				row.Total, row.QuiverTotal, row.Speedup)
		}
	}
	return rows, nil
}

// Fig5Row compares Quiver GPU sampling against UVA sampling.
type Fig5Row struct {
	Dataset  string
	P        int
	GPUTotal float64
	UVATotal float64
}

// Fig5 reproduces Figure 5: Quiver with GPU sampling vs UVA sampling
// on Papers-like and Protein-like.
func Fig5(w io.Writer, o Options) ([]Fig5Row, error) {
	var rows []Fig5Row
	fmt.Fprintf(w, "Figure 5: Quiver GPU vs UVA sampling (per-epoch seconds, simulated)\n")
	fmt.Fprintf(w, "%-10s %5s %12s %12s\n", "dataset", "p", "quiver-gpu", "quiver-uva")
	for _, name := range []string{"papers", "protein"} {
		d, err := datasets.ByName(name, o.Profile)
		if err != nil {
			return nil, err
		}
		for _, p := range o.gpus(figureGPUs) {
			run := func(a pipeline.Algorithm) (*pipeline.Result, error) {
				return pipeline.Run(d, pipeline.Config{
					P: p, Algorithm: a, MaxBatches: o.MaxBatches, Seed: o.Seed, Model: o.Model,
				})
			}
			gpu, err := run(pipeline.Quiver)
			if err != nil {
				return nil, err
			}
			uva, err := run(pipeline.QuiverUVA)
			if err != nil {
				return nil, err
			}
			row := Fig5Row{Dataset: name, P: p,
				GPUTotal: gpu.LastEpoch().Total, UVATotal: uva.LastEpoch().Total}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-10s %5d %12.4f %12.4f\n", name, p, row.GPUTotal, row.UVATotal)
		}
	}
	return rows, nil
}

// Fig6Row compares the pipeline with and without feature replication.
type Fig6Row struct {
	Dataset             string
	P                   int
	WithRep, NoRep      float64
	FetchRep, FetchNone float64
}

// Fig6 reproduces Figure 6: the Graph Replicated pipeline with the
// Figure 4 replication factors vs the same pipeline forced to c=1.
func Fig6(w io.Writer, o Options) ([]Fig6Row, error) {
	var rows []Fig6Row
	fmt.Fprintf(w, "Figure 6: effect of feature replication (per-epoch seconds, simulated)\n")
	fmt.Fprintf(w, "%-10s %5s %10s %10s %12s %12s\n",
		"dataset", "p", "with-rep", "no-rep", "fetch(rep)", "fetch(none)")
	for _, name := range []string{"papers", "protein"} {
		d, err := datasets.ByName(name, o.Profile)
		if err != nil {
			return nil, err
		}
		for _, p := range o.gpus(figureGPUs) {
			run := func(c int) (pipeline.EpochStats, error) {
				res, err := pipeline.Run(d, pipeline.Config{
					P: p, C: c, K: kFor(p, d.NumBatches()),
					MaxBatches: o.MaxBatches, Seed: o.Seed, Model: o.Model,
				})
				if err != nil {
					return pipeline.EpochStats{}, err
				}
				return res.LastEpoch(), nil
			}
			rep, err := run(cFor(p))
			if err != nil {
				return nil, err
			}
			none, err := run(1)
			if err != nil {
				return nil, err
			}
			row := Fig6Row{Dataset: name, P: p,
				WithRep: rep.Total, NoRep: none.Total,
				FetchRep: rep.FeatureFetch, FetchNone: none.FeatureFetch}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-10s %5d %10.4f %10.4f %12.4f %12.4f\n",
				name, p, row.WithRep, row.NoRep, row.FetchRep, row.FetchNone)
		}
	}
	return rows, nil
}

// Fig7Row is one bar of Figure 7: the Graph Partitioned sampling
// breakdown at one (dataset, p, c).
type Fig7Row struct {
	Dataset     string
	Sampler     string
	P, C        int
	Probability float64
	Sampling    float64
	Extraction  float64
	Total       float64
	Comm        float64
	Comp        float64
	CPURef      float64 // serial CPU LADIES reference (LADIES only)
}

// RunPartitionedSampling measures one Graph Partitioned bulk sampling
// run of s drawing sizes[l] at layer l (sampling only — Figure 7
// excludes training), under o's MaxBatches, Seed and Model.
func RunPartitionedSampling(d *datasets.Dataset, s core.Sampler, sizes []int, p, c int, aware bool, o Options) (*cluster.Result, error) {
	if p%c != 0 || (p/c)%c != 0 {
		return nil, fmt.Errorf("bench: c^2 must divide p (p=%d c=%d)", p, c)
	}
	cl := cluster.New(p, o.Model)
	grid := cluster.NewGrid(cl, p, c)
	set := distsample.NewPartitionedSet(grid, d.Graph.Adj, aware)
	batches := pipeline.Batches(d, o.MaxBatches)
	res, err := cl.Run(func(r *cluster.Rank) error {
		distsample.SamplePartitioned(r, set[r.ID], s, distsample.LocalBatches(grid, r.ID, batches), sizes, o.Seed)
		return nil
	})
	if err == nil {
		distsample.ReleasePartitionedSet(set)
	}
	return res, err
}

// Fig7 reproduces Figure 7 for one sampler (a core.Samplers key; the
// paper shows sage and ladies) at its family's preset depth: Graph
// Partitioned sampling time broken into probability / sampling /
// extraction and comm / comp at p in {16,32,64} with the paper's
// per-count replication factors. Layer-wise rows carry the serial CPU
// LADIES reference.
func Fig7(w io.Writer, sampler string, o Options) ([]Fig7Row, error) {
	entry, err := core.SamplerByName(sampler)
	if err != nil {
		return nil, err
	}
	cOf := map[int]int{16: 2, 32: 4, 64: 4}
	var rows []Fig7Row
	fmt.Fprintf(w, "Figure 7 (%s): Graph Partitioned sampling breakdown (seconds, simulated)\n", sampler)
	fmt.Fprintf(w, "%-10s %5s %3s %12s %10s %11s %10s %10s %10s %10s\n",
		"dataset", "p", "c", "probability", "sampling", "extraction", "total", "comm", "comp", "cpu-ref")
	for _, name := range []string{"protein", "papers"} {
		d, err := datasets.ByName(name, o.Profile)
		if err != nil {
			return nil, err
		}
		s := entry.New(d.Graph)
		sizes := core.LayerSizes(s, d.Fanouts, d.LayerWidth, 0)
		processed := len(pipeline.Batches(d, o.MaxBatches))
		cpuRef := 0.0
		if s.LayerWise() {
			cpuRef, err = baseline.CPULadiesReference(d, len(sizes), o.MaxBatches, o.Seed, o.Model)
			if err != nil {
				return nil, err
			}
		}
		for _, p := range o.gpus(fig7GPUs) {
			c := cOf[p]
			if c == 0 {
				c = cFor(p) / 2
				if c == 0 {
					c = 1
				}
			}
			res, err := RunPartitionedSampling(d, s, sizes, p, c, true, o)
			if err != nil {
				return nil, err
			}
			scale := pipeline.BlockScale(d.NumBatches(), processed, p/c)
			row := Fig7Row{
				Dataset: name, Sampler: sampler, P: p, C: c,
				Probability: res.Phase(distsample.PhaseProbability) * scale,
				Sampling:    res.Phase(distsample.PhaseSampling) * scale,
				Extraction:  res.Phase(distsample.PhaseExtraction) * scale,
				CPURef:      cpuRef,
			}
			row.Total = row.Probability + row.Sampling + row.Extraction
			row.Comm = (res.PhaseComm(distsample.PhaseProbability) +
				res.PhaseComm(distsample.PhaseSampling) +
				res.PhaseComm(distsample.PhaseExtraction)) * scale
			row.Comp = row.Total - row.Comm
			rows = append(rows, row)
			fmt.Fprintf(w, "%-10s %5d %3d %12.4f %10.4f %11.4f %10.4f %10.4f %10.4f %10.4f\n",
				name, p, c, row.Probability, row.Sampling, row.Extraction,
				row.Total, row.Comm, row.Comp, row.CPURef)
		}
	}
	return rows, nil
}
