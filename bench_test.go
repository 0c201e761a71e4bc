// Benchmarks regenerating every table and figure of the paper's
// evaluation section (one Benchmark per artifact — see the
// per-experiment index in DESIGN.md), plus kernel microbenchmarks and
// ablations of the design choices DESIGN.md calls out.
//
// Experiment benches run at the Tiny profile so `go test -bench=.`
// completes quickly; record headline results with
// `go run ./cmd/gnnbench -profile bench`. Custom b.ReportMetric
// columns expose the *simulated* seconds (the figure's y-axis), which
// are the reproduction target; wall-clock ns/op only measures the
// simulator.
package repro

import (
	"io"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gnn"
	"repro/internal/pipeline"
	"repro/internal/sparse"
)

func benchOpts() bench.Options {
	return bench.Options{
		Profile:   datasets.Tiny,
		GPUCounts: []int{4, 8},
		Seed:      20240101,
	}
}

// BenchmarkTable2Systems regenerates the system capability matrix.
func BenchmarkTable2Systems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(io.Discard)
	}
}

// BenchmarkTable3Datasets regenerates the dataset statistics table.
func BenchmarkTable3Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(io.Discard, datasets.Tiny); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Pipeline regenerates Figure 4: Graph Replicated
// pipeline vs Quiver per-epoch breakdowns.
func BenchmarkFig4Pipeline(b *testing.B) {
	var last []bench.Fig4Row
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig4(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	if len(last) > 0 {
		final := last[len(last)-1]
		b.ReportMetric(final.Total, "sim_sec/epoch")
		b.ReportMetric(final.Speedup, "speedup_vs_quiver")
	}
}

// BenchmarkFig5UVA regenerates Figure 5: Quiver GPU vs UVA sampling.
func BenchmarkFig5UVA(b *testing.B) {
	var last []bench.Fig5Row
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig5(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	if len(last) > 0 {
		b.ReportMetric(last[len(last)-1].UVATotal/last[len(last)-1].GPUTotal, "uva_slowdown")
	}
}

// BenchmarkFig6Replication regenerates Figure 6: replication on/off.
func BenchmarkFig6Replication(b *testing.B) {
	var last []bench.Fig6Row
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6(io.Discard, bench.Options{
			Profile: datasets.Tiny, GPUCounts: []int{8}, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	if len(last) > 0 {
		b.ReportMetric(last[0].FetchNone/last[0].FetchRep, "fetch_speedup_from_rep")
	}
}

// BenchmarkFig7Sage regenerates the GraphSAGE half of Figure 7.
func BenchmarkFig7Sage(b *testing.B) {
	benchmarkFig7(b, "sage")
}

// BenchmarkFig7Ladies regenerates the LADIES half of Figure 7,
// including the serial CPU reference.
func BenchmarkFig7Ladies(b *testing.B) {
	benchmarkFig7(b, "ladies")
}

func benchmarkFig7(b *testing.B, sampler string) {
	var last []bench.Fig7Row
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7(io.Discard, sampler, bench.Options{
			Profile: datasets.Tiny, GPUCounts: []int{4}, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	if len(last) > 0 {
		b.ReportMetric(last[0].Total, "sim_sec/sampling")
		b.ReportMetric(last[0].Comm, "sim_sec/comm")
	}
}

// BenchmarkAccuracy regenerates the Section 8.1.3 accuracy check.
func BenchmarkAccuracy(b *testing.B) {
	d := datasets.SBM(datasets.SBMConfig{
		N: 512, Classes: 4, Features: 8,
		IntraDeg: 10, InterDeg: 2, Noise: 0.5,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 9,
	})
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Accuracy(io.Discard, d, bench.Options{Epochs: 6, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		acc = res.TestAccuracy
	}
	b.ReportMetric(acc, "test_accuracy")
}

// BenchmarkTprobSweep checks the Section 5.2.1 communication model
// against measured 1.5D SpGEMM communication.
func BenchmarkTprobSweep(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Tprob(io.Discard, "products", 4, []int{1, 2}, bench.Options{
			Profile: datasets.Tiny, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[len(rows)-1].Ratio
	}
	b.ReportMetric(ratio, "measured_over_model")
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationBulkVsPerBatch quantifies the bulk-sampling
// amortization: sampling all minibatches in one call vs one call per
// minibatch (k=all vs k=1), the heart of Section 4's contribution.
func BenchmarkAblationBulkVsPerBatch(b *testing.B) {
	var perBatch, bulk float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Amortization(io.Discard, "products", []int{1, 0}, bench.Options{Profile: datasets.Tiny, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		perBatch, bulk = rows[0].SimTime, rows[len(rows)-1].SimTime
	}
	b.ReportMetric(perBatch/bulk, "bulk_amortization_x")
}

// BenchmarkAblationSparsityAware compares Algorithm 2's sparsity-aware
// row fetching against the oblivious full-block broadcast in the 1.5D
// SpGEMM.
func BenchmarkAblationSparsityAware(b *testing.B) {
	d := datasets.ProductsLike(datasets.Tiny)
	var aware, obliv float64
	for i := 0; i < b.N; i++ {
		ra, err := bench.RunPartitionedSampling(d, core.SAGE{}, d.Fanouts, 4, 2, true, bench.Options{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		ro, err := bench.RunPartitionedSampling(d, core.SAGE{}, d.Fanouts, 4, 2, false, bench.Options{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		aware = ra.SimTime
		obliv = ro.SimTime
	}
	b.ReportMetric(obliv/aware, "oblivious_over_aware")
}

// --- Kernel microbenchmarks ------------------------------------------

// BenchmarkSpGEMM measures the Gustavson SpGEMM on a Products-like
// probability product (Q·A for one bulk).
func BenchmarkSpGEMM(b *testing.B) {
	d := datasets.ProductsLike(datasets.Small)
	q := core.SAGE{}.BuildQ(core.NewFrontier(d.Batches()), d.Graph.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.SpGEMM(q, d.Graph.Adj)
	}
}

// BenchmarkBulkSampleSAGE measures one full bulk GraphSAGE sampling
// call over every minibatch of the Small Products analog.
func BenchmarkBulkSampleSAGE(b *testing.B) {
	d := datasets.ProductsLike(datasets.Small)
	batches := d.Batches()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SampleBulk(core.SAGE{}, d.Graph.Adj, batches, d.Fanouts, int64(i))
	}
}

// BenchmarkBulkSampleLADIES measures one full bulk LADIES sampling
// call.
func BenchmarkBulkSampleLADIES(b *testing.B) {
	d := datasets.ProductsLike(datasets.Small)
	batches := d.Batches()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SampleBulk(core.LADIES{}, d.Graph.Adj, batches, []int{d.LayerWidth}, int64(i))
	}
}

// BenchmarkITS measures inverse transform sampling on a 256-entry
// distribution.
func BenchmarkITS(b *testing.B) {
	w := make([]float64, 256)
	for i := range w {
		w[i] = float64(i%17) + 1
	}
	rng := core.NewRowRNG(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SampleRowITS(w, 16, rng)
	}
}

// BenchmarkCPULadiesReference measures the serial baseline sampler.
func BenchmarkCPULadiesReference(b *testing.B) {
	d := datasets.ProductsLike(datasets.Tiny)
	var ref float64
	for i := 0; i < b.N; i++ {
		r, err := baseline.CPULadiesReference(d, 1, 0, 1, cluster.Perlmutter())
		if err != nil {
			b.Fatal(err)
		}
		ref = r
	}
	b.ReportMetric(ref, "sim_sec")
}

// BenchmarkGNNForwardBackward measures one training step (forward,
// loss, backward) over a sampled minibatch at example scale. Allocations
// are the steady state's: the step's matrices live in a workspace the
// model recycles, so what is left is the gradient vector and little
// else.
func BenchmarkGNNForwardBackward(b *testing.B) {
	d := datasets.ProductsLike(datasets.Small)
	bulk := core.SampleBulk(core.SAGE{}, d.Graph.Adj, d.Batches()[:1], d.Fanouts, 1)
	bg := bulk.ExtractBatch(0)
	model := gnn.NewModel(gnn.Config{
		In: d.Features.Cols, Hidden: 64, Classes: d.NumClasses,
		Layers: len(d.Fanouts), Seed: 1,
	})
	feats := gnn.GatherFeatures(d.Features, bg.InputVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		act, _ := model.Forward(bg, feats)
		_, dLogits := gnn.Loss(act, act.SeedLabels(d.Labels))
		model.Backward(act, dLogits)
	}
}

// BenchmarkPipelineEpoch measures one simulated distributed training
// epoch end to end (p=4 replicated, tiny dataset).
func BenchmarkPipelineEpoch(b *testing.B) {
	d := datasets.ProductsLike(datasets.Tiny)
	var total float64
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Run(d, pipeline.Config{P: 4, C: 2, Epochs: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		total = res.LastEpoch().Total
	}
	b.ReportMetric(total, "sim_sec/epoch")
}

// BenchmarkAblationOverlap reports the measured gain of the staged
// engine's overlapped schedule over the sequential bulk-synchronous
// pipeline at the Tiny profile.
func BenchmarkAblationOverlap(b *testing.B) {
	d := datasets.ProductsLike(datasets.Tiny)
	var speedup float64
	for i := 0; i < b.N; i++ {
		seq, err := pipeline.Run(d, pipeline.Config{P: 2, C: 1, K: 1, Epochs: 1, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		ov, err := pipeline.Run(d, pipeline.Config{P: 2, C: 1, K: 1, Epochs: 1, Seed: 3, Overlap: true})
		if err != nil {
			b.Fatal(err)
		}
		speedup = seq.LastEpoch().Total / ov.LastEpoch().Total
	}
	b.ReportMetric(speedup, "overlap_speedup")
}

// BenchmarkOverlapVsSequentialSmall compares the staged engine's
// overlapped schedule against the sequential one at the Small profile
// — the headline check that prefetching sampling and feature fetch
// onto their own streams shortens the simulated epoch. Both runs share
// a seed, so they train identically; only the schedule differs. A
// quarter-epoch bulk size gives the pipeline rounds to overlap (k=all
// has a single round and nothing to prefetch across).
func BenchmarkOverlapVsSequentialSmall(b *testing.B) {
	d := datasets.ProductsLike(datasets.Small)
	k := d.NumBatches() / 4
	cfg := pipeline.Config{P: 4, C: 2, K: k, Epochs: 1, Seed: 41}
	var seqT, ovT float64
	for i := 0; i < b.N; i++ {
		seq, err := pipeline.Run(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ovCfg := cfg
		ovCfg.Overlap = true
		ov, err := pipeline.Run(d, ovCfg)
		if err != nil {
			b.Fatal(err)
		}
		seqT, ovT = seq.LastEpoch().Total, ov.LastEpoch().Total
		if ovT > seqT {
			b.Fatalf("overlapped epoch (%v) slower than sequential (%v)", ovT, seqT)
		}
		if ov.LastEpoch().Loss != seq.LastEpoch().Loss {
			b.Fatalf("overlap changed training: loss %v vs %v",
				ov.LastEpoch().Loss, seq.LastEpoch().Loss)
		}
	}
	b.ReportMetric(seqT, "seq_sim_sec/epoch")
	b.ReportMetric(ovT, "overlap_sim_sec/epoch")
	b.ReportMetric(seqT/ovT, "overlap_speedup")
}

// BenchmarkOverlapVsSequentialPartitionedSmall compares the staged
// engine's overlapped schedule against the sequential one for the 1.5D
// Graph Partitioned algorithm at the Small profile — the stream-safe
// collectives check: the sampling stage drives grid collectives from
// its own prefetch stream (per-stage communicator clones) while the
// fetch all-to-allv and the gradient all-reduce run on theirs, and the
// training outcome must not change.
func BenchmarkOverlapVsSequentialPartitionedSmall(b *testing.B) {
	d := datasets.ProductsLike(datasets.Small)
	k := d.NumBatches() / 4
	cfg := pipeline.Config{P: 4, C: 2, K: k, Epochs: 1, Seed: 41,
		Algorithm: pipeline.GraphPartitioned, SparsityAware: true}
	var seqT, ovT float64
	for i := 0; i < b.N; i++ {
		seq, err := pipeline.Run(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ovCfg := cfg
		ovCfg.Overlap = true
		ov, err := pipeline.Run(d, ovCfg)
		if err != nil {
			b.Fatal(err)
		}
		seqT, ovT = seq.LastEpoch().Total, ov.LastEpoch().Total
		if ovT > seqT {
			b.Fatalf("overlapped partitioned epoch (%v) slower than sequential (%v)", ovT, seqT)
		}
		if ov.LastEpoch().Loss != seq.LastEpoch().Loss {
			b.Fatalf("overlap changed partitioned training: loss %v vs %v",
				ov.LastEpoch().Loss, seq.LastEpoch().Loss)
		}
	}
	b.ReportMetric(seqT, "seq_sim_sec/epoch")
	b.ReportMetric(ovT, "overlap_sim_sec/epoch")
	b.ReportMetric(seqT/ovT, "overlap_speedup")
}
