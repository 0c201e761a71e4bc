package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

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
		{Config{P: 2, C: -3}, []string{"replication factor C=-3"}},
		{Config{P: 2, Sampler: "bogus"}, append([]string{`unknown sampler "bogus"`}, keys...)},
		{Config{P: 2, Algorithm: 7}, []string{"unknown algorithm 7"}},
		{Config{P: 2, Epochs: -1}, []string{"negative epoch count"}},
		{Config{P: 2, MaxBatches: -3}, []string{"MaxBatches=-3"}},
		{Config{P: 2, LR: -0.1}, []string{"learning rate"}},
		{Config{P: 2, LR: math.Inf(1)}, []string{"learning rate +Inf: must be positive and finite"}},
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

func TestFetchCorrectRows(t *testing.T) {
	d := tinySBM()
	cl := cluster.New(4, cluster.Perlmutter())
	g := cluster.NewGrid(cl, 4, 1)
	stores := NewFeatureStores(g, d.Features)
	want := []int{0, 100, 511, 100, 7, 0}
	_, err := cl.Run(func(r *cluster.Rank) error {
		for trial := 0; trial < 2; trial++ { // second pass runs on warm scratch
			got := stores[r.ID].Fetch(r, want)
			for i, v := range want {
				for j := 0; j < got.Cols; j++ {
					if got.At(i, j) != d.Features.At(v, j) {
						t.Errorf("rank %d: fetch row %d wrong", r.ID, i)
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
	s := makeSchedule(Config{P: 8, C: 1, K: 3}, 16)
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
		a := stores[r.ID].Fetch(r, wantA)
		b := stores[r.ID].Fetch(r, wantB) // warm scratch
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
	// volume of [v, v, v, w] equals that of [v, w], and rows land in
	// every slot.
	d := tinySBM()
	fetchBytes := func(verts []int) (int64, *dense.Matrix) {
		cl := cluster.New(4, cluster.Perlmutter())
		g := cluster.NewGrid(cl, 4, 1)
		stores := NewFeatureStores(g, d.Features)
		var out *dense.Matrix
		res, err := cl.Run(func(r *cluster.Rank) error {
			got := stores[r.ID].Fetch(r, verts)
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
		return total, out
	}
	// 400 is remote to rank 0 (4 ranks own 128 rows each).
	repeated, out := fetchBytes([]int{400, 400, 400, 7})
	distinct, _ := fetchBytes([]int{400, 7})
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

// checkGolden runs cfg and pins its simulated time, last-epoch total
// and loss bit-for-bit. A run without a topology reports no physical
// links.
func checkGolden(t *testing.T, d *datasets.Dataset, name string, cfg Config, wantSim, wantTotal, wantLoss float64) {
	t.Helper()
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := [3]float64{res.Cluster.SimTime, res.LastEpoch().Total, res.LastEpoch().Loss}
	if want := [3]float64{wantSim, wantTotal, wantLoss}; got != want {
		t.Errorf("%s: (SimTime, Total, Loss) = %.17g, want %.17g", name, got, want)
	}
	if res.Cluster.PhysLinks != nil {
		t.Errorf("%s: contention-off run reported physical links", name)
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
// TestGoldenContentionOffPerAlgorithm pins the remaining collective
// selections; no config runs in both.
func TestGoldenFlatTreeBitIdentical(t *testing.T) {
	d := tinySBM()
	checkGolden(t, d, "replicated", Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8},
		0.00055022244746666686, 0.00055033819413333347, 0.65450965782981307)
	checkGolden(t, d, "partitioned", Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8,
		Algorithm: GraphPartitioned, SparsityAware: true},
		0.001098003337466667, 0.00085527868810000049, 0.66800119073290198)
	checkGolden(t, d, "hier", Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8,
		Model: onModel(cluster.Collectives{AllReduce: cluster.Hierarchical})},
		0.00054651823413333334, 0.00054663398079999996, 0.65450965782981296)
}

// Contention-off golden identity: with Topology == nil every algorithm
// must charge bit-identically to the pre-topology code under every
// collective algorithm — the contention layer may not perturb the
// ideal charging path. SimTime and Loss were captured at the
// introduction of the topology layer, Total on the code before Quiver
// became an Algorithm. The flat rows and the replicated hier row are
// TestGoldenFlatTreeBitIdentical's; the Quiver rows are
// internal/baseline's TestGoldenQuiverBitIdentical and
// TestGoldenQuiverContentionOffPerAlgorithm. Each row runs a second
// time with its table on a model with no machine, which the pipeline
// completes to the same Perlmutter run instead of dropping the table.
func TestGoldenContentionOffPerAlgorithm(t *testing.T) {
	d := tinySBM()
	tables := map[string]cluster.Collectives{
		"ring": {AllReduce: cluster.Ring, AllToAll: cluster.Pairwise},
		"hier": {AllReduce: cluster.Hierarchical},
	}
	golden := []struct {
		algorithm        Algorithm
		table            string
		sim, total, loss float64
	}{
		{GraphReplicated, "ring", 0.00073401284746666675, 0.00073412859413333337, 0.65450965782981307},
		{GraphPartitioned, "ring", 0.0012977937374666669, 0.0010051214881000004, 0.66800119073290198},
		{GraphPartitioned, "hier", 0.0010942991241333338, 0.00085250052810000043, 0.66800119073290198},
	}
	for _, g := range golden {
		// An explicit "ideal" parse is the nil topology: the same run.
		topo, err := cluster.ParseTopology("ideal")
		if err != nil {
			t.Fatal(err)
		}
		for name, model := range map[string]cluster.CostModel{
			"perlmutter": onModel(tables[g.table]),
			"no machine": {Collectives: tables[g.table]},
		} {
			checkGolden(t, d, fmt.Sprintf("%v/%s/%s", g.algorithm, g.table, name),
				Config{P: 8, C: 2, Epochs: 2, Seed: 5, MaxBatches: 8,
					Algorithm: g.algorithm, SparsityAware: g.algorithm == GraphPartitioned,
					Model: model, Topology: topo},
				g.sim, g.total, g.loss)
		}
	}
}

// An oversubscribed fabric measurably stretches the schedule and
// reports its physical links. That it preserves training — changes
// when work is charged, never what is computed — is the differential
// harness's topology row (TestDifferential).
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
// run, a new store's first Fetch allocates no more than a warm
// store's next call does. GC is held off while counting (see
// TestFetchCachedCostsWhatItRequests).
func TestFreshStoresReuseFetchMemory(t *testing.T) {
	d := tinySBM()
	cl := cluster.New(4, cluster.Perlmutter())
	g := cluster.NewGrid(cl, 4, 2)
	verts := []int{3, 9, 200, 450, 12, 100, 511, 7, 100}
	call := func(stores []*FeatureStore) {
		if _, err := cl.Run(func(r *cluster.Rank) error {
			freeFeatures.Put(stores[r.ID].Fetch(r, verts))
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
// call must allocate nothing at either size: its two all-to-allv
// contributions live in the rendezvous's reused buckets, not in a boxed
// message each (2 allocations, 96 bytes per rank per call before). The
// bytes a warm call adds may only be the runtime's own few, under a
// word per call; and the rank's scratch must be no larger at 256
// members than at 4. Each call's result goes back to the
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
		cl := cluster.New(n, cluster.Perlmutter())
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
						freeFeatures.Put(stores[r.ID].Fetch(r, verts))
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
	if small.allocs != 0 || large.allocs != 0 || math.Abs(small.bytes) >= 8 || math.Abs(large.bytes) >= 8 {
		t.Fatalf("per warm fetch per rank: %+v at 4 members, %+v at 256; want no allocation", small, large)
	}
	if scratch[256] != scratch[4] {
		t.Fatalf("rank scratch grew with the column: %v at 4 members, %v at 256", scratch[4], scratch[256])
	}
	t.Logf("per warm fetch per rank: %+v; scratch %v", perCall[4], scratch[4])
}
