package pipeline

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/graph"
)

func tinySBM() *datasets.Dataset {
	return datasets.SBM(datasets.SBMConfig{
		N: 512, Classes: 4, Features: 8,
		IntraDeg: 10, InterDeg: 2, Noise: 0.5,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 7,
	})
}

func TestFeatureStoresPartition(t *testing.T) {
	d := tinySBM()
	cl := cluster.New(8, cluster.Perlmutter())
	g := cluster.NewGrid(cl, 8, 2)
	stores := NewFeatureStores(g, d.Features)
	covered := 0
	seen := map[int]bool{}
	for rank := 0; rank < 8; rank++ {
		fs := stores[rank]
		if !seen[fs.Lo] {
			seen[fs.Lo] = true
			covered += fs.Hi - fs.Lo
		}
		// Block contents must match the global matrix.
		for i := 0; i < fs.H.Rows; i += 7 {
			for j := 0; j < fs.H.Cols; j++ {
				if fs.H.At(i, j) != d.Features.At(fs.Lo+i, j) {
					t.Fatalf("rank %d feature block corrupt at (%d,%d)", rank, i, j)
				}
			}
		}
	}
	if covered != d.Features.Rows {
		t.Fatalf("blocks cover %d of %d rows", covered, d.Features.Rows)
	}
}

func TestFetchReturnsCorrectRows(t *testing.T) {
	d := tinySBM()
	cl := cluster.New(4, cluster.Perlmutter())
	g := cluster.NewGrid(cl, 4, 2)
	stores := NewFeatureStores(g, d.Features)
	want := []int{0, 100, 511, 100, 7}
	_, err := cl.Run(func(r *cluster.Rank) error {
		got := stores[r.ID].Fetch(r, want)
		for i, v := range want {
			for j := 0; j < got.Cols; j++ {
				if got.At(i, j) != d.Features.At(v, j) {
					t.Errorf("rank %d: fetched row %d col %d = %v, want %v",
						r.ID, i, j, got.At(i, j), d.Features.At(v, j))
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFetchEmptyIsSafe(t *testing.T) {
	d := tinySBM()
	cl := cluster.New(4, cluster.Perlmutter())
	g := cluster.NewGrid(cl, 4, 1)
	stores := NewFeatureStores(g, d.Features)
	_, err := cl.Run(func(r *cluster.Rank) error {
		var verts []int
		if r.ID == 0 {
			verts = []int{3, 4}
		}
		got := stores[r.ID].Fetch(r, verts)
		if got.Rows != len(verts) {
			t.Errorf("rank %d: got %d rows", r.ID, got.Rows)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunReplicatedEpoch(t *testing.T) {
	d := tinySBM()
	res, err := Run(d, Config{P: 4, C: 2, Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	e := res.LastEpoch()
	if e.Sampling <= 0 || e.FeatureFetch <= 0 || e.Propagation <= 0 {
		t.Fatalf("phase breakdown missing: %+v", e)
	}
	if math.Abs(e.Total-(e.Sampling+e.FeatureFetch+e.Propagation)) > 1e-9 {
		t.Fatal("total != sum of phases")
	}
	if res.Params == nil {
		t.Fatal("no trained parameters returned")
	}
}

func TestRunLossDecreasesAcrossEpochs(t *testing.T) {
	d := tinySBM()
	res, err := Run(d, Config{P: 2, C: 1, Epochs: 5, Seed: 2, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Epochs[0].Loss, res.LastEpoch().Loss
	if last >= first {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", first, last)
	}
}

func TestRunPartitionedEpoch(t *testing.T) {
	d := tinySBM()
	res, err := Run(d, Config{P: 4, C: 2, Epochs: 1, Seed: 3,
		Algorithm: GraphPartitioned, SparsityAware: true})
	if err != nil {
		t.Fatal(err)
	}
	e := res.LastEpoch()
	if e.Sampling <= 0 {
		t.Fatal("no sampling time")
	}
	if e.SamplingComm <= 0 {
		t.Fatal("partitioned sampling should communicate")
	}
}

func TestRunLadiesReplicated(t *testing.T) {
	d := tinySBM()
	res, err := Run(d, Config{P: 2, C: 1, Epochs: 1, Seed: 4, Sampler: "ladies"})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastEpoch().Total <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestRunLadiesPartitioned(t *testing.T) {
	d := tinySBM()
	res, err := Run(d, Config{P: 4, C: 2, Epochs: 1, Seed: 5,
		Sampler: "ladies", Algorithm: GraphPartitioned, SparsityAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastEpoch().Total <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestRunRejectsBadGrid(t *testing.T) {
	d := tinySBM()
	if _, err := Run(d, Config{P: 4, C: 3}); err == nil {
		t.Fatal("expected error: c does not divide p")
	}
	if _, err := Run(d, Config{P: 8, C: 4, Algorithm: GraphPartitioned}); err == nil {
		t.Fatal("expected error: c^2 does not divide p for partitioned")
	}
}

// Every bad Config value is an error naming the field before any rank
// runs; an unknown sampler's names the whole vocabulary.
func TestRunRejectsBadInput(t *testing.T) {
	d := tinySBM()
	var keys []string
	for _, e := range core.Samplers {
		keys = append(keys, e.Key)
	}
	for _, c := range []struct {
		cfg  Config
		want []string
	}{
		{Config{P: 0}, []string{"p=0"}},
		{Config{P: 2, Sampler: "bogus"}, append([]string{`unknown sampler "bogus"`}, keys...)},
		{Config{P: 2, Algorithm: 7}, []string{"unknown algorithm 7"}},
		{Config{P: 2, Epochs: -1}, []string{"negative epoch count"}},
		{Config{P: 2, MaxBatches: -3}, []string{"MaxBatches=-3"}},
		{Config{P: 2, LR: -0.1}, []string{"learning rate"}},
		{Config{P: 2, Dropout: 1}, []string{"dropout rate 1"}},
		{Config{P: 2, CachePolicy: cache.LRU, CacheFrac: -1}, []string{"cache fraction -1"}},
		{Config{P: 2, CachePolicy: cache.LRU, CacheFrac: math.NaN()}, []string{"cache fraction NaN"}},
		{Config{P: 2, CachePolicy: cache.StaticDegree, CacheFrac: 7}, []string{"cache fraction 7"}},
		{Config{P: 2, CachePolicy: cache.StaticDegree}, []string{"cache fraction 0"}},
		{Config{P: 2, CkptInterval: -1}, []string{"negative checkpoint interval"}},
	} {
		_, err := Run(d, c.cfg)
		if err == nil {
			t.Errorf("%+v accepted", c.cfg)
			continue
		}
		for _, want := range c.want {
			if msg := err.Error(); !strings.Contains(msg, want) || strings.Contains(msg, "\n") {
				t.Errorf("error %q, want one line containing %q", msg, want)
			}
		}
	}
}

func TestReplicationReducesFetchTime(t *testing.T) {
	// The core Figure 6 claim: raising c shrinks feature-fetch time
	// because more of H is rank-local.
	d := tinySBM()
	noRep, err := Run(d, Config{P: 8, C: 1, Epochs: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(d, Config{P: 8, C: 4, Epochs: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastEpoch().FeatureFetch >= noRep.LastEpoch().FeatureFetch {
		t.Fatalf("c=4 fetch (%v) not faster than c=1 (%v)",
			rep.LastEpoch().FeatureFetch, noRep.LastEpoch().FeatureFetch)
	}
}

func TestMaxBatchesExtrapolates(t *testing.T) {
	d := tinySBM()
	full, err := Run(d, Config{P: 2, C: 1, Epochs: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := Run(d, Config{P: 2, C: 1, Epochs: 1, Seed: 7, MaxBatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Extrapolated totals should land within 3x of the full run (they
	// measure the same per-batch work modulo batch variance).
	ratio := trunc.LastEpoch().Total / full.LastEpoch().Total
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("extrapolation off: ratio %v", ratio)
	}
}

func TestEvaluateLearnsSBM(t *testing.T) {
	d := tinySBM()
	cfg := Config{P: 2, C: 1, Epochs: 12, Seed: 8, LR: 0.02}
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := Evaluate(d, res.Params, cfg, d.Test)
	if acc < 0.6 {
		t.Fatalf("test accuracy %.3f below 0.6 — model failed to learn", acc)
	}
	// Untrained (fresh Xavier) parameters must do markedly worse.
	fresh := Run0Params(d, cfg)
	freshAcc := Evaluate(d, fresh, cfg, d.Test)
	if freshAcc >= acc {
		t.Fatalf("untrained accuracy %.3f >= trained %.3f", freshAcc, acc)
	}
}

func TestModelsStaySynchronizedAcrossRanks(t *testing.T) {
	// With deterministic dummy-padded collectives, every rank applies
	// identical optimizer steps; rank counts must not change the
	// learned parameters' loss trajectory shape. We check the weaker
	// invariant that training with p=1 and p=2 both converge.
	d := tinySBM()
	for _, p := range []int{1, 2} {
		res, err := Run(d, Config{P: p, C: 1, Epochs: 4, Seed: 9, LR: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if res.LastEpoch().Loss >= res.Epochs[0].Loss {
			t.Fatalf("p=%d: loss did not improve", p)
		}
	}
}

func TestBlockScale(t *testing.T) {
	// Full set processed: no extrapolation.
	if BlockScale(100, 100, 8) != 1 {
		t.Fatal("full run must not scale")
	}
	// 256 batches over 128 ranks = 2 each; 24 processed = 1 each on
	// the busiest rank: scale 2, not 256/24.
	if got := BlockScale(256, 24, 128); got != 2 {
		t.Fatalf("BlockScale(256,24,128) = %v, want 2", got)
	}
	// Serial: plain ratio.
	if got := BlockScale(100, 25, 1); got != 4 {
		t.Fatalf("BlockScale(100,25,1) = %v, want 4", got)
	}
}

func TestRunFastGCNReplicated(t *testing.T) {
	d := tinySBM()
	res, err := Run(d, Config{P: 2, C: 1, Epochs: 1, Seed: 13, Sampler: "fastgcn"})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastEpoch().Total <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestFastGCNPartitionedRuns(t *testing.T) {
	d := tinySBM()
	res, err := Run(d, Config{P: 4, C: 2, Sampler: "fastgcn",
		Algorithm: GraphPartitioned, SparsityAware: true, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastEpoch().Total <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestFeatureCacheReducesFetchTime(t *testing.T) {
	// Caching is a bandwidth optimization: with repeated fetches
	// deduplicated per request, its win is the β·bytes it keeps off
	// the wire, so measure it on a skewed-degree graph where the
	// static working set actually absorbs traffic, and assert the
	// traffic reduction directly as well.
	d := datasets.ProductsLike(datasets.Tiny)
	base, err := Run(d, Config{P: 8, C: 1, Epochs: 1, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Run(d, Config{P: 8, C: 1, Epochs: 1, Seed: 14,
		CachePolicy: cache.StaticDegree, CacheFrac: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if cached.LastEpoch().FeatureFetch >= base.LastEpoch().FeatureFetch {
		t.Fatalf("cache did not reduce fetch: %v vs %v",
			cached.LastEpoch().FeatureFetch, base.LastEpoch().FeatureFetch)
	}
	bytesSent := func(r *Result) int64 {
		var total int64
		for _, s := range r.Cluster.Ranks {
			total += s.BytesSent
		}
		return total
	}
	if cb, bb := bytesSent(cached), bytesSent(base); cb >= bb {
		t.Fatalf("cache did not reduce wire traffic: %d vs %d bytes", cb, bb)
	}
	// Cached runs must still train correctly (same loss trajectory
	// shape: decreasing).
	if cached.LastEpoch().Loss <= 0 {
		t.Fatal("cached run lost the loss signal")
	}
}

func TestFetchCachedCorrectRows(t *testing.T) {
	d := tinySBM()
	cl := cluster.New(4, cluster.Perlmutter())
	g := cluster.NewGrid(cl, 4, 1)
	stores := NewFeatureStores(g, d.Features)
	want := []int{0, 100, 511, 100, 7, 0}
	_, err := cl.Run(func(r *cluster.Rank) error {
		c := cache.New(cache.StaticDegree, 64, d.Graph.Degrees())
		for trial := 0; trial < 2; trial++ { // second pass hits LRU/admitted
			got := stores[r.ID].FetchCached(r, want, c)
			for i, v := range want {
				for j := 0; j < got.Cols; j++ {
					if got.At(i, j) != d.Features.At(v, j) {
						t.Errorf("rank %d: cached fetch row %d wrong", r.ID, i)
						return nil
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateFullMatchesSampledRoughly(t *testing.T) {
	// Full-batch (exact) accuracy and sampled accuracy must roughly
	// agree on a well-trained model — the paper's claim that sampling
	// does not change the learning outcome.
	d := tinySBM()
	cfg := Config{P: 2, C: 1, Epochs: 10, Seed: 16, LR: 0.02}
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampled := Evaluate(d, res.Params, cfg, d.Test)
	exact := EvaluateFull(d, res.Params, cfg, d.Test)
	if exact < 0.6 {
		t.Fatalf("full-batch accuracy %.3f too low", exact)
	}
	if sampled < exact-0.15 || sampled > exact+0.15 {
		t.Fatalf("sampled %.3f vs exact %.3f diverge", sampled, exact)
	}
}

func TestSimulationDeterministic(t *testing.T) {
	// The simulated clocks must be a pure function of the computation:
	// identical configs produce bit-identical phase timings regardless
	// of goroutine scheduling.
	d := tinySBM()
	cfg := Config{P: 4, C: 2, Epochs: 1, Seed: 77}
	a, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.LastEpoch(), b.LastEpoch()
	if ea.Sampling != eb.Sampling || ea.FeatureFetch != eb.FeatureFetch ||
		ea.Propagation != eb.Propagation || ea.Loss != eb.Loss {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", ea, eb)
	}
}

func TestRunWithDropout(t *testing.T) {
	d := tinySBM()
	res, err := Run(d, Config{P: 2, C: 1, Epochs: 4, Seed: 18, LR: 0.02, Dropout: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastEpoch().Loss >= res.Epochs[0].Loss {
		t.Fatalf("dropout training failed to reduce loss: %v -> %v",
			res.Epochs[0].Loss, res.LastEpoch().Loss)
	}
	acc := Evaluate(d, res.Params, Config{P: 2, C: 1, Seed: 18}, d.Test)
	if acc < 0.4 {
		t.Fatalf("accuracy %.3f too low", acc)
	}
}

func TestOverlapFasterThanSequentialNotBelowBound(t *testing.T) {
	d := tinySBM()
	base := Config{P: 4, C: 1, K: 16, Epochs: 1, Seed: 23}
	seq, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.Overlap = true
	ov, err := Run(d, over)
	if err != nil {
		t.Fatal(err)
	}
	eSeq, eOv := seq.LastEpoch(), ov.LastEpoch()
	if eOv.Total >= eSeq.Total {
		t.Fatalf("overlap (%v) not faster than sequential (%v)", eOv.Total, eSeq.Total)
	}
	// Lower bound: the staged engine prefetches both sampling and
	// feature fetch, but propagation sits on the critical path of
	// every schedule — the makespan cannot beat the training stream.
	bound := eSeq.Propagation
	if eOv.Total < bound*0.95 {
		t.Fatalf("overlap (%v) below physical bound (%v)", eOv.Total, bound)
	}
	// The exposed prefetch latency is reported, not silently dropped.
	if eOv.Stall < 0 {
		t.Fatalf("negative stall %v", eOv.Stall)
	}
	// Training outcome identical: overlap only reschedules work.
	if eOv.Loss != eSeq.Loss {
		t.Fatalf("overlap changed training: loss %v vs %v", eOv.Loss, eSeq.Loss)
	}
}

func TestOverlapTrainingBitIdenticalToSequential(t *testing.T) {
	// The overlapped schedule only reorders *when* work is charged to
	// the simulated clocks, never *what* is computed: with the same
	// seed, every epoch's loss, the trained parameters and the final
	// accuracy must match the sequential schedule exactly.
	d := tinySBM()
	base := Config{P: 4, C: 2, K: 8, Epochs: 3, Seed: 31, LR: 0.02}
	seq, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.Overlap = true
	ov, err := Run(d, over)
	if err != nil {
		t.Fatal(err)
	}
	for e := range seq.Epochs {
		if seq.Epochs[e].Loss != ov.Epochs[e].Loss {
			t.Fatalf("epoch %d loss diverged: %v vs %v", e, seq.Epochs[e].Loss, ov.Epochs[e].Loss)
		}
	}
	if len(seq.Params) != len(ov.Params) {
		t.Fatalf("param count diverged: %d vs %d", len(seq.Params), len(ov.Params))
	}
	for i := range seq.Params {
		if seq.Params[i] != ov.Params[i] {
			t.Fatalf("param %d diverged: %v vs %v", i, seq.Params[i], ov.Params[i])
		}
	}
	sa := Evaluate(d, seq.Params, base, d.Test)
	oa := Evaluate(d, ov.Params, over, d.Test)
	if sa != oa {
		t.Fatalf("test accuracy diverged: %v vs %v", sa, oa)
	}
}

func TestOverlapSimulatedTimeDeterministic(t *testing.T) {
	// The overlapped schedule runs real goroutines, but simulated time
	// must stay a pure function of the computation.
	d := tinySBM()
	cfg := Config{P: 4, C: 1, K: 16, Epochs: 1, Seed: 37, Overlap: true}
	a, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.LastEpoch(), b.LastEpoch()
	if ea.Total != eb.Total || ea.Stall != eb.Stall || ea.Sampling != eb.Sampling ||
		ea.FeatureFetch != eb.FeatureFetch || ea.Propagation != eb.Propagation {
		t.Fatalf("overlapped simulation not deterministic:\n%+v\n%+v", ea, eb)
	}
}

func TestPartitionedOverlapBitIdenticalToSequential(t *testing.T) {
	// The 1.5D partitioned schedule drives collectives from its
	// sampling and fetch stages; with stream-safe communicator clones
	// those stages prefetch on their own streams, and the overlapped
	// schedule must still compute exactly what the sequential one does:
	// same losses, parameters and accuracy at the same seed.
	d := tinySBM()
	for _, entry := range core.Samplers {
		sampler := entry.Key
		base := Config{P: 4, C: 2, K: 8, Epochs: 2, Seed: 43, LR: 0.02,
			Sampler: sampler, Algorithm: GraphPartitioned, SparsityAware: true}
		seq, err := Run(d, base)
		if err != nil {
			t.Fatalf("%s sequential: %v", sampler, err)
		}
		over := base
		over.Overlap = true
		ov, err := Run(d, over)
		if err != nil {
			t.Fatalf("%s overlapped: %v", sampler, err)
		}
		for e := range seq.Epochs {
			if seq.Epochs[e].Loss != ov.Epochs[e].Loss {
				t.Fatalf("%s epoch %d loss diverged: %v vs %v",
					sampler, e, seq.Epochs[e].Loss, ov.Epochs[e].Loss)
			}
			if seq.Epochs[e].LossBatches != ov.Epochs[e].LossBatches {
				t.Fatalf("%s epoch %d batch count diverged: %d vs %d",
					sampler, e, seq.Epochs[e].LossBatches, ov.Epochs[e].LossBatches)
			}
		}
		if len(seq.Params) != len(ov.Params) {
			t.Fatalf("%s param count diverged", sampler)
		}
		for i := range seq.Params {
			if seq.Params[i] != ov.Params[i] {
				t.Fatalf("%s param %d diverged: %v vs %v", sampler, i, seq.Params[i], ov.Params[i])
			}
		}
		sa := Evaluate(d, seq.Params, base, d.Test)
		oa := Evaluate(d, ov.Params, over, d.Test)
		if sa != oa {
			t.Fatalf("%s test accuracy diverged: %v vs %v", sampler, sa, oa)
		}
	}
}

func TestPartitionedOverlapMakespanWithinBounds(t *testing.T) {
	// The overlapped partitioned epoch can be no longer than the
	// sequential phase sum and no shorter than its busiest stream
	// (max of sampling, fetch and propagation).
	d := tinySBM()
	base := Config{P: 4, C: 2, K: 8, Epochs: 1, Seed: 47,
		Algorithm: GraphPartitioned, SparsityAware: true}
	seq, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.Overlap = true
	ov, err := Run(d, over)
	if err != nil {
		t.Fatal(err)
	}
	eSeq, eOv := seq.LastEpoch(), ov.LastEpoch()
	if eOv.Total > eSeq.Total*(1+1e-9) {
		t.Fatalf("overlapped makespan %v exceeds sequential sum %v", eOv.Total, eSeq.Total)
	}
	bound := eOv.Sampling
	if eOv.FeatureFetch > bound {
		bound = eOv.FeatureFetch
	}
	if eOv.Propagation > bound {
		bound = eOv.Propagation
	}
	if eOv.Total < bound*(1-1e-9) {
		t.Fatalf("overlapped makespan %v below busiest-stream bound %v", eOv.Total, bound)
	}
	if eOv.Stall < 0 {
		t.Fatalf("negative stall %v", eOv.Stall)
	}
}

func TestPartitionedOverlapSimulatedTimeDeterministic(t *testing.T) {
	// Collectives on prefetch streams must not make simulated time
	// depend on goroutine scheduling.
	d := tinySBM()
	cfg := Config{P: 4, C: 2, K: 8, Epochs: 1, Seed: 53, Overlap: true,
		Algorithm: GraphPartitioned, SparsityAware: true}
	a, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.LastEpoch(), b.LastEpoch()
	if ea.Total != eb.Total || ea.Stall != eb.Stall || ea.Sampling != eb.Sampling ||
		ea.FeatureFetch != eb.FeatureFetch || ea.Propagation != eb.Propagation {
		t.Fatalf("partitioned overlap not deterministic:\n%+v\n%+v", ea, eb)
	}
}

func TestAggregateLossWeightsByBatchCount(t *testing.T) {
	// Rank 0: two batches with losses 1 and 3; rank 1: one batch with
	// loss 9. The epoch loss is the batch-weighted mean 13/3, not rank
	// 0's local average 2.
	sums := [][]float64{{4}, {9}}
	counts := [][]int{{2}, {1}}
	loss, n := aggregateLoss(sums, counts, 0)
	if n != 3 {
		t.Fatalf("counted %d batches, want 3", n)
	}
	if want := 13.0 / 3.0; loss != want {
		t.Fatalf("loss = %v, want %v (rank-0-only would be 2)", loss, want)
	}
	// A rank with no batches carries zero weight.
	loss, n = aggregateLoss([][]float64{{4}, {0}}, [][]int{{2}, {0}}, 0)
	if n != 2 || loss != 2 {
		t.Fatalf("zero-count rank mishandled: loss %v n %d", loss, n)
	}
	// No batches anywhere: zero, not NaN.
	if loss, n = aggregateLoss([][]float64{{0}}, [][]int{{0}}, 0); loss != 0 || n != 0 {
		t.Fatalf("empty epoch mishandled: loss %v n %d", loss, n)
	}
}

func TestLossAggregatesAcrossRanksUnevenBatches(t *testing.T) {
	// 3 batches over p=2 ranks: rank 0 counts 2, rank 1 counts 1. The
	// reported loss must cover all 3 (the old rank-0-local report
	// covered 2 and misweighted the epoch).
	d := tinySBM()
	res, err := Run(d, Config{P: 2, C: 1, Epochs: 1, Seed: 59, MaxBatches: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := res.LastEpoch()
	if e.LossBatches != 3 {
		t.Fatalf("aggregated %d batch losses, want 3 (all ranks)", e.LossBatches)
	}
	if e.Loss <= 0 {
		t.Fatalf("loss signal lost: %v", e.Loss)
	}
}

func TestSmallKScheduleSurfacesEffectiveBulk(t *testing.T) {
	// K below the sampling-block count cannot be honored (every block
	// samples at least one batch per round); the schedule clamps the
	// bulk up and the run surfaces the inflation.
	d := tinySBM()
	cl := cluster.New(8, cluster.Perlmutter())
	grid := cluster.NewGrid(cl, 8, 1)
	s := makeSchedule(Config{P: 8, C: 1, K: 3}, grid, 16)
	if s.sampPerRound != 1 {
		t.Fatalf("sampPerRound = %d, want clamp to 1", s.sampPerRound)
	}
	if got := s.effectiveBulk(); got != 8 {
		t.Fatalf("effectiveBulk = %d, want 8 (the block count)", got)
	}
	res, err := Run(d, Config{P: 8, C: 1, K: 3, Epochs: 1, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveK != 8 {
		t.Fatalf("EffectiveK = %d, want 8 > requested K=3", res.EffectiveK)
	}
	// An honorable K passes through unchanged.
	res, err = Run(d, Config{P: 4, C: 1, K: 8, Epochs: 1, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveK != 8 {
		t.Fatalf("EffectiveK = %d, want the requested 8", res.EffectiveK)
	}
}

// TestFetchCachedScratchReuse pins the per-rank scratch contract: a
// fetch over warm request/response arenas (dirtied by a previous
// call) returns the same rows as a cold one, and the returned matrix
// is the caller's until handed back — a later fetch must never
// overwrite an earlier result, because the overlap engine hands fetched
// features across stage boundaries while the next batch's fetch runs.
func TestFetchCachedScratchReuse(t *testing.T) {
	d := tinySBM()
	cl := cluster.New(4, cluster.Perlmutter())
	g := cluster.NewGrid(cl, 4, 2) // c=2: replicas share a store, scratch is per grid column
	stores := NewFeatureStores(g, d.Features)
	wantA := []int{0, 100, 511, 7}
	wantB := []int{3, 9, 200, 450, 12, 100}
	_, err := cl.Run(func(r *cluster.Rank) error {
		a := stores[r.ID].FetchCached(r, wantA, nil)
		b := stores[r.ID].FetchCached(r, wantB, nil) // warm scratch
		for i, v := range wantA {
			for j := 0; j < a.Cols; j++ {
				if a.At(i, j) != d.Features.At(v, j) {
					t.Errorf("rank %d: earlier fetch row %d clobbered by scratch reuse", r.ID, i)
					return nil
				}
			}
		}
		for i, v := range wantB {
			for j := 0; j < b.Cols; j++ {
				if b.At(i, j) != d.Features.At(v, j) {
					t.Errorf("rank %d: warm-scratch fetch row %d wrong", r.ID, i)
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFetchCachedDedupesRepeatedVertices(t *testing.T) {
	// Repeated vertices in one request cross the wire once: the wire
	// volume of [v, v, v, w] equals that of [v, w], rows land in every
	// slot, and the cache sees one Lookup and at most one Admit per
	// distinct vertex per request.
	d := tinySBM()
	fetchBytes := func(verts []int, withCache bool) (int64, cache.Stats, *dense.Matrix) {
		cl := cluster.New(4, cluster.Perlmutter())
		g := cluster.NewGrid(cl, 4, 1)
		stores := NewFeatureStores(g, d.Features)
		caches := make([]cache.Cache, 4)
		if withCache {
			for i := range caches {
				caches[i] = cache.New(cache.LRU, 64, nil)
			}
		}
		var out *dense.Matrix
		res, err := cl.Run(func(r *cluster.Rank) error {
			got := stores[r.ID].FetchCached(r, verts, caches[r.ID])
			if r.ID == 0 {
				out = got
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, s := range res.Ranks {
			total += s.BytesSent
		}
		var st cache.Stats
		if withCache {
			st = caches[0].Stats()
		}
		return total, st, out
	}
	// 400 is remote to rank 0 (4 ranks own 128 rows each).
	repeated, _, out := fetchBytes([]int{400, 400, 400, 7}, false)
	distinct, _, _ := fetchBytes([]int{400, 7}, false)
	if repeated != distinct {
		t.Fatalf("repeats crossed the wire: %d bytes vs %d for distinct", repeated, distinct)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < out.Cols; j++ {
			if out.At(i, j) != d.Features.At(400, j) {
				t.Fatalf("repeat slot %d row wrong at col %d", i, j)
			}
		}
	}
	for j := 0; j < out.Cols; j++ {
		if out.At(3, j) != d.Features.At(7, j) {
			t.Fatalf("distinct slot row wrong at col %d", j)
		}
	}
	// Cache accounting: one miss per distinct remote vertex on rank 0
	// ([400 x3] -> 1 miss), and a repeat of a cached vertex stays one
	// hit per request.
	_, st, _ := fetchBytes([]int{400, 400, 400}, true)
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("repeated request should Lookup once: %+v", st)
	}
}

func TestLastEpochEmptyResultIsZero(t *testing.T) {
	var r Result
	if got := r.LastEpoch(); got != (EpochStats{}) {
		t.Fatalf("LastEpoch on empty result = %+v, want zero", got)
	}
}

// onModel returns the default platform charging collectives under tbl.
func onModel(tbl cluster.Collectives) cluster.CostModel {
	m := cluster.Perlmutter()
	m.Collectives = tbl
	return m
}

func TestHierAllReduceSameTraining(t *testing.T) {
	d := tinySBM()
	flat, err := Run(d, Config{P: 8, C: 2, Epochs: 2, Seed: 24, MaxBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := Run(d, Config{P: 8, C: 2, Epochs: 2, Seed: 24, MaxBatches: 8,
		Model: onModel(cluster.Collectives{AllReduce: cluster.Hierarchical})})
	if err != nil {
		t.Fatal(err)
	}
	// Summation order differs between the algorithms (as with real
	// NCCL reductions) and Adam amplifies ULP-level differences over
	// steps, so compare training *outcomes*, not parameters: both
	// runs must learn equally well.
	fa := Evaluate(d, flat.Params, Config{P: 8, C: 2, Seed: 24}, d.Test)
	ha := Evaluate(d, hier.Params, Config{P: 8, C: 2, Seed: 24}, d.Test)
	if diff := fa - ha; diff > 0.1 || diff < -0.1 {
		t.Fatalf("accuracy diverges between all-reduce algorithms: %.3f vs %.3f", fa, ha)
	}
}

// Golden values captured on the pre-refactor code (inline α–β formulas,
// AllReduceSumHier as a special-case function) at these exact configs.
// The pluggable collective-algorithm layer must keep default (FlatTree)
// runs — and the Hierarchical selection that replaced AllReduceSumHier —
// bit-identical in simulated time and loss. The partitioned golden was
// captured with the generic all-reduce's local-reduction memory charge
// applied to the old code, since that satellite fix deliberately adds
// the (documented) ChargeMem term the old generic all-reduce lacked.
func TestGoldenFlatTreeBitIdentical(t *testing.T) {
	d := tinySBM()
	// Every golden must hold bit-for-bit on both execution backends:
	// the backend moves the simulator's machinery, never its results.
	check := func(name string, cfg Config, wantSim, wantTotal, wantLoss float64) {
		t.Helper()
		for _, be := range []cluster.Backend{cluster.GoroutineBackend, cluster.DESBackend} {
			cfg.Backend = be
			res, err := Run(d, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, be, err)
			}
			e := res.LastEpoch()
			if res.Cluster.SimTime != wantSim {
				t.Errorf("%s/%v: SimTime = %.17g, want %.17g", name, be, res.Cluster.SimTime, wantSim)
			}
			if e.Total != wantTotal {
				t.Errorf("%s/%v: Total = %.17g, want %.17g", name, be, e.Total, wantTotal)
			}
			if e.Loss != wantLoss {
				t.Errorf("%s/%v: Loss = %.17g, want %.17g", name, be, e.Loss, wantLoss)
			}
		}
	}
	check("replicated", Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8},
		0.00055022244746666686, 0.00055033819413333347, 0.65450965782981307)
	check("partitioned", Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8,
		Algorithm: GraphPartitioned, SparsityAware: true},
		0.001098003337466667, 0.00085527868810000049, 0.66800119073290198)
	check("hier", Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8,
		Model: onModel(cluster.Collectives{AllReduce: cluster.Hierarchical})},
		0.00054651823413333334, 0.00054663398079999996, 0.65450965782981296)
}

// The ring and pairwise schedules change only *when* work is charged,
// never what is computed: training losses must be bit-identical to the
// flat default, while the simulated time moves with the schedule.
func TestRingAndPairwiseSelectionSameValues(t *testing.T) {
	d := tinySBM()
	base := Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8}
	flat, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	alt := base
	alt.Model = onModel(cluster.Collectives{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise})
	ring, err := Run(d, alt)
	if err != nil {
		t.Fatal(err)
	}
	for e := range flat.Epochs {
		if flat.Epochs[e].Loss != ring.Epochs[e].Loss {
			t.Fatalf("epoch %d loss diverged: %v vs %v", e, flat.Epochs[e].Loss, ring.Epochs[e].Loss)
		}
	}
	for i, p := range flat.Params {
		if ring.Params[i] != p {
			t.Fatalf("param %d diverged under ring/pairwise selection", i)
		}
	}
	if flat.Cluster.SimTime == ring.Cluster.SimTime {
		t.Fatal("ring/pairwise selection did not change the simulated schedule")
	}
}

// TestRunRejectsInvalidCollectives pins the validation path.
func TestRunRejectsInvalidCollectives(t *testing.T) {
	d := tinySBM()
	_, err := Run(d, Config{P: 4, C: 1, Epochs: 1, Seed: 1,
		Model: onModel(cluster.Collectives{AllToAll: cluster.Ring})})
	if err == nil {
		t.Fatal("ring all-to-allv accepted")
	}
	_, err = Run(d, Config{P: 4, C: 1, Epochs: 1, Seed: 1,
		Model: onModel(cluster.Collectives{AllReduce: cluster.Pairwise})})
	if err == nil {
		t.Fatal("pairwise all-reduce accepted")
	}
}

// Overlap determinism must hold per collective algorithm: the
// software-pipelined schedule trains bit-identically to sequential and
// books a reproducible makespan under ring and hierarchical selections
// too, not just the flat default.
func TestOverlapDeterministicPerAlgorithm(t *testing.T) {
	d := tinySBM()
	for _, tbl := range []cluster.Collectives{
		{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise},
		{AllReduce: cluster.Hierarchical},
	} {
		base := Config{P: 8, C: 2, Epochs: 2, Seed: 9, MaxBatches: 8, Model: onModel(tbl)}
		seq, err := Run(d, base)
		if err != nil {
			t.Fatal(err)
		}
		over := base
		over.Overlap = true
		o1, err := Run(d, over)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := Run(d, over)
		if err != nil {
			t.Fatal(err)
		}
		for e := range seq.Epochs {
			if seq.Epochs[e].Loss != o1.Epochs[e].Loss {
				t.Fatalf("%v: overlap changed epoch %d loss", tbl, e)
			}
		}
		if o1.Cluster.SimTime != o2.Cluster.SimTime {
			t.Fatalf("%v: overlapped SimTime not deterministic: %.17g vs %.17g",
				tbl, o1.Cluster.SimTime, o2.Cluster.SimTime)
		}
	}
}

// Contention-off golden identity: with Topology == nil every strategy
// must charge bit-identically to the pre-topology code under every
// collective algorithm — the contention layer may not perturb the
// ideal charging path. Values captured at the introduction of the
// topology layer (the flat entries equal the pre-refactor goldens
// above, pinning the chain back to the original inline formulas).
func TestGoldenContentionOffPerAlgorithm(t *testing.T) {
	d := tinySBM()
	tables := map[string]cluster.Collectives{
		"flat": {},
		"ring": {AllReduce: cluster.Ring, AllToAll: cluster.Pairwise},
		"hier": {AllReduce: cluster.Hierarchical},
	}
	golden := []struct {
		algorithm Algorithm
		table     string
		sim, loss float64
	}{
		{GraphReplicated, "flat", 0.00055022244746666686, 0.65450965782981307},
		{GraphReplicated, "ring", 0.00073401284746666675, 0.65450965782981307},
		{GraphReplicated, "hier", 0.00054651823413333334, 0.65450965782981296},
		{GraphPartitioned, "flat", 0.001098003337466667, 0.66800119073290198},
		{GraphPartitioned, "ring", 0.0012977937374666669, 0.66800119073290198},
		{GraphPartitioned, "hier", 0.0010942991241333338, 0.66800119073290198},
	}
	for _, g := range golden {
		for _, be := range []cluster.Backend{cluster.GoroutineBackend, cluster.DESBackend} {
			// An explicit "ideal" parse is the nil topology: the same run.
			topo, err := cluster.ParseTopology("ideal")
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(d, Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8,
				Algorithm: g.algorithm, SparsityAware: g.algorithm == GraphPartitioned,
				Model: onModel(tables[g.table]), Topology: topo, Backend: be})
			if err != nil {
				t.Fatalf("%v/%s/%v: %v", g.algorithm, g.table, be, err)
			}
			if got := res.Cluster.SimTime; got != g.sim {
				t.Errorf("%v/%s/%v: SimTime = %.17g, want %.17g", g.algorithm, g.table, be, got, g.sim)
			}
			if got := res.LastEpoch().Loss; got != g.loss {
				t.Errorf("%v/%s/%v: Loss = %.17g, want %.17g", g.algorithm, g.table, be, got, g.loss)
			}
			if res.Cluster.PhysLinks != nil {
				t.Errorf("%v/%s/%v: contention-off run reported physical links", g.algorithm, g.table, be)
			}
		}
	}
}

// A contention topology may change only *when* work is charged, never
// what is computed: training outcomes stay bit-identical while the
// oversubscribed fabric measurably stretches the schedule.
func TestOversubscribedTopologySlowsButPreservesTraining(t *testing.T) {
	d := tinySBM()
	base := Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8}
	ideal, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	contended := base
	contended.Topology = cluster.OversubscribedTopology(4)
	over, err := Run(d, contended)
	if err != nil {
		t.Fatal(err)
	}
	for e := range ideal.Epochs {
		if ideal.Epochs[e].Loss != over.Epochs[e].Loss {
			t.Fatalf("epoch %d loss changed under contention: %v vs %v",
				e, ideal.Epochs[e].Loss, over.Epochs[e].Loss)
		}
	}
	for i, p := range ideal.Params {
		if over.Params[i] != p {
			t.Fatalf("param %d changed under contention", i)
		}
	}
	if over.Cluster.SimTime <= ideal.Cluster.SimTime {
		t.Fatalf("oversubscribed fabric did not slow the run: %v vs %v",
			over.Cluster.SimTime, ideal.Cluster.SimTime)
	}
	if len(over.Cluster.PhysLinks) == 0 {
		t.Fatal("contended run recorded no physical-link stats")
	}
}

// On the fully-provisioned Perlmutter topology (one NIC per GPU) a
// bulk-synchronous run never contends: every member of every
// collective flows through its own injection links, so the charged
// times agree with the ideal α–β model to floating-point round-off.
func TestPerlmutterTopologySequentialMatchesIdeal(t *testing.T) {
	d := tinySBM()
	base := Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8}
	ideal, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	perl := base
	perl.Topology = cluster.PerlmutterTopology()
	res, err := Run(d, perl)
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(res.Cluster.SimTime - ideal.Cluster.SimTime)
	if diff > 1e-9*ideal.Cluster.SimTime {
		t.Fatalf("per-GPU-NIC sequential run diverged from ideal: %.17g vs %.17g",
			res.Cluster.SimTime, ideal.Cluster.SimTime)
	}
	for _, pl := range res.Cluster.PhysLinks {
		if pl.MaxConcurrency > 1 {
			t.Fatalf("sequential run contended on %s (concurrency %d)", pl.Name, pl.MaxConcurrency)
		}
	}
}

// The overlapped schedule still trains bit-identically to sequential
// under a contention topology — contention stretches stream clocks,
// never values — and the run completes without deadlock even though
// every collective takes an extra rendezvous round.
func TestOverlapUnderContentionSameTraining(t *testing.T) {
	d := tinySBM()
	base := Config{P: 8, C: 2, Epochs: 2, Seed: 9, MaxBatches: 8,
		Topology: cluster.OversubscribedTopology(4)}
	seq, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.Overlap = true
	res, err := Run(d, over)
	if err != nil {
		t.Fatal(err)
	}
	for e := range seq.Epochs {
		if seq.Epochs[e].Loss != res.Epochs[e].Loss {
			t.Fatalf("overlap changed epoch %d loss under contention", e)
		}
	}
}

// Config.Topology rejects invalid layouts through Run's error path.
func TestRunRejectsInvalidTopology(t *testing.T) {
	d := tinySBM()
	_, err := Run(d, Config{P: 4, C: 1, Epochs: 1, Seed: 1,
		Topology: &cluster.Topology{Name: "bad", NICsPerNode: -1}})
	if err == nil {
		t.Fatal("invalid topology accepted")
	}
}

// A released store set's fetch workspaces serve the next set: after one
// run, a new store's first FetchCached allocates no more than a warm
// store's next call does. GC is held off while counting (see
// TestFetchCachedCostsWhatItRequests).
func TestFreshStoresReuseFetchMemory(t *testing.T) {
	d := tinySBM()
	model := cluster.Perlmutter()
	model.Backend = cluster.DESBackend
	cl := cluster.New(4, model)
	g := cluster.NewGrid(cl, 4, 2)
	verts := []int{3, 9, 200, 450, 12, 100, 511, 7, 100}
	call := func(stores []*FeatureStore) {
		if _, err := cl.Run(func(r *cluster.Rank) error {
			freeFeatures.Put(stores[r.ID].FetchCached(r, verts, nil))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warm := NewFeatureStores(g, d.Features)
	call(warm)
	warmCall := testing.AllocsPerRun(5, func() { call(warm) })
	releaseFeatureStores(warm)
	build := testing.AllocsPerRun(5, func() { releaseFeatureStores(NewFeatureStores(g, d.Features)) })
	freshCall := testing.AllocsPerRun(5, func() {
		stores := NewFeatureStores(g, d.Features)
		call(stores)
		releaseFeatureStores(stores)
	}) - build
	if freshCall > warmCall {
		t.Fatalf("a new store's first fetch made %v allocations, a warm store's fetch %v", freshCall, warmCall)
	}
}

// TestFetchCachedCostsWhatItRequests: a fetch's host bookkeeping scales
// with its request, not with the column it runs over. Every rank asks for
// the same shape of request — 8 slots over 5 distinct vertices, 3 owned by
// the next block row and 2 by its own — at column sizes 4 and 256. A warm
// call must allocate as often per rank at both sizes, and as many bytes
// give or take the runtime's own few (a per-member buffer costs ×10 at
// 256 members), and the rank's scratch must be no
// larger at 256 members than at 4. Each call's result goes back to the
// free list, as the propagation stage hands it back, and the stores
// start from empty workspaces rather than a recycled set's. GC is held
// off while counting: a collection frees the runtime's own caches,
// which then count as allocations of whichever run refills them.
func TestFetchCachedCostsWhatItRequests(t *testing.T) {
	const rows, f, more = 2048, 4, 6
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	feats := dense.New(rows, f)
	for i := range feats.Data {
		feats.Data[i] = float64(i)
	}
	type cost struct{ allocs, bytes float64 }
	perCall := map[int]cost{}
	scratch := map[int][8]int{}
	for _, n := range []int{4, 256} {
		model := cluster.Perlmutter()
		model.Backend = cluster.DESBackend
		cl := cluster.New(n, model)
		g := cluster.NewGrid(cl, n, 1)
		stores := NewFeatureStores(g, feats)
		clear(stores[0].scratch)
		run := func(calls int) cost {
			body := func() {
				if _, err := cl.Run(func(r *cluster.Rank) error {
					lo, _ := graph.BlockRowRange(rows, n, r.ID)
					next, _ := graph.BlockRowRange(rows, n, (r.ID+1)%n)
					verts := []int{next, next + 1, lo, next, next + 2, lo, next + 1, lo + 1}
					for i := 0; i < calls; i++ {
						freeFeatures.Put(stores[r.ID].FetchCached(r, verts, nil))
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(2, body)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 8; i++ {
				body()
			}
			runtime.ReadMemStats(&after)
			return cost{allocs, float64(after.TotalAlloc-before.TotalAlloc) / 8}
		}
		run(6) // every round's payload type on every slot of the rendezvous ring
		warm, hot := run(2), run(2+more)
		perCall[n] = cost{(hot.allocs - warm.allocs) / float64(more*n), (hot.bytes - warm.bytes) / float64(more*n)}
		sc := stores[0].scratch[0]
		scratch[n] = [8]int{len(sc.pos), cap(sc.wanted), cap(sc.repeats), cap(sc.owners),
			cap(sc.reqs), cap(sc.reqVerts), cap(sc.resps), cap(sc.rowData)}
	}
	small, large := perCall[4], perCall[256]
	if small.allocs != large.allocs || math.Abs(small.bytes-large.bytes) > 0.1*small.bytes {
		t.Fatalf("per warm fetch per rank: %+v at 4 members, %+v at 256", small, large)
	}
	if scratch[256] != scratch[4] {
		t.Fatalf("rank scratch grew with the column: %v at 4 members, %v at 256", scratch[4], scratch[256])
	}
	t.Logf("per warm fetch per rank: %+v; scratch %v", perCall[4], scratch[4])
}
