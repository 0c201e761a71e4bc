package autotune

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
)

func TestEstimateMonotoneInCAndK(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	m := DefaultMemoryModel()
	// More replication -> bigger feature block.
	if m.Estimate(d, 8, 4, 4) <= m.Estimate(d, 8, 1, 4) {
		t.Fatal("estimate not increasing in c")
	}
	// More bulk -> bigger working set (p=2 so per-GPU batches differ).
	if m.Estimate(d, 2, 1, 8) <= m.Estimate(d, 2, 1, 1) {
		t.Fatal("estimate not increasing in k")
	}
	// More GPUs shrink both shares.
	if m.Estimate(d, 16, 2, 8) >= m.Estimate(d, 4, 2, 8) {
		t.Fatal("estimate not decreasing in p")
	}
}

func TestTunePrefersMaxC(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	m := MemoryModel{GPUBytes: 1 << 30, Overhead: 0.1} // plenty of room
	choice, err := Tune(m, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if choice.C != 8 {
		t.Fatalf("with ample memory c should be max: got %d", choice.C)
	}
	if choice.K != pipeline.KAll {
		t.Fatalf("with ample memory k should be the explicit all sentinel %d: got %d", pipeline.KAll, choice.K)
	}
}

func TestTuneShrinksUnderPressure(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	ample, err := Tune(MemoryModel{GPUBytes: 1 << 30, Overhead: 0.1}, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A budget just below the maximal configuration forces the tuner
	// to give something up (smaller k or smaller c).
	m := MemoryModel{GPUBytes: ample.Estimate - 1024, Overhead: 0}
	tight, err := Tune(m, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tight.C > ample.C {
		t.Fatalf("tight budget raised c: %+v vs %+v", tight, ample)
	}
	if tight.C == ample.C && tight.K == ample.K {
		t.Fatalf("tight budget changed nothing: %+v", tight)
	}
	if tight.Estimate > m.GPUBytes {
		t.Fatalf("tuned config exceeds budget: %+v", tight)
	}
}

func TestTuneFailsWhenNothingFits(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	if _, err := Tune(MemoryModel{GPUBytes: 1, Overhead: 0}, d, 4); err == nil {
		t.Fatal("expected error for impossible budget")
	}
}

func TestTuneConfigFillsZeros(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	m := MemoryModel{GPUBytes: 1 << 30, Overhead: 0.1}
	cfg, err := TuneConfig(m, d, pipeline.Config{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.C == 0 {
		t.Fatal("C not filled")
	}
	// Explicit values survive.
	cfg2, err := TuneConfig(m, d, pipeline.Config{P: 8, C: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.C != 2 || cfg2.K != 3 {
		t.Fatalf("explicit values overwritten: %+v", cfg2)
	}
}

func TestTuneConfigRespectsExplicitAllMinibatches(t *testing.T) {
	// K = pipeline.KAll is the explicit "all minibatches in one bulk"
	// request — the documented meaning of k=all everywhere else — and
	// must pass through untouched, not be mistaken for "unset" and
	// silently re-tuned (the regression this test pins down).
	d := datasets.ProductsLike(datasets.Tiny)
	// A budget too tight for k=all: tuning would pick a smaller k.
	ample, err := Tune(MemoryModel{GPUBytes: 1 << 30, Overhead: 0.1}, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	tight := MemoryModel{GPUBytes: ample.Estimate - 1024, Overhead: 0}
	cfg, err := TuneConfig(tight, d, pipeline.Config{P: 8, C: 2, K: pipeline.KAll})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != pipeline.KAll || cfg.C != 2 {
		t.Fatalf("explicit all-minibatches config was re-tuned: %+v", cfg)
	}
	// With C unset, C is tuned but the explicit K still survives.
	cfg, err = TuneConfig(tight, d, pipeline.Config{P: 8, K: pipeline.KAll})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != pipeline.KAll {
		t.Fatalf("explicit all-minibatches K lost while tuning C: %+v", cfg)
	}
	if cfg.C <= 0 {
		t.Fatalf("C not tuned: %+v", cfg)
	}
	// A tuned config is a fixed point of TuneConfig.
	auto, err := TuneConfig(tight, d, pipeline.Config{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	again, err := TuneConfig(tight, d, auto)
	if err != nil {
		t.Fatal(err)
	}
	if again.C != auto.C || again.K != auto.K {
		t.Fatalf("TuneConfig not idempotent: c=%d k=%d vs c=%d k=%d",
			again.C, again.K, auto.C, auto.K)
	}
}

func TestTunedConfigRuns(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	cfg, err := TuneConfig(DefaultMemoryModel(), d, pipeline.Config{P: 4, Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LastEpoch().Total <= 0 {
		t.Fatal("tuned run produced no time")
	}
}

// The tuner fills the all-reduce schedule only when it is unset,
// mirroring the K/KAll sentinel convention: DefaultAlgorithm means
// "choose for me", every explicit selection — explicit FlatTree
// included — passes through untouched.
func TestTuneCollectivesSentinel(t *testing.T) {
	model := cluster.Perlmutter() // 4 GPUs per node

	got := TuneCollectives(model, 16, cluster.Collectives{})
	if got.AllReduce != cluster.Hierarchical {
		t.Fatalf("multi-node unset: chose %v, want hier", got.AllReduce)
	}
	got = TuneCollectives(model, 4, cluster.Collectives{})
	if got.AllReduce != cluster.FlatTree {
		t.Fatalf("single-node unset: chose %v, want flat", got.AllReduce)
	}
	// Explicit selections are left alone.
	for _, explicit := range []cluster.CollectiveAlgorithm{cluster.FlatTree, cluster.Ring} {
		got = TuneCollectives(model, 16, cluster.Collectives{AllReduce: explicit})
		if got.AllReduce != explicit {
			t.Fatalf("explicit %v overridden to %v", explicit, got.AllReduce)
		}
	}
	// A tuned table round-trips unchanged.
	once := TuneCollectives(model, 16, cluster.Collectives{})
	if twice := TuneCollectives(model, 16, once); twice != once {
		t.Fatalf("tuned table re-tuned: %+v vs %+v", twice, once)
	}
}

func TestTuneConfigFillsCollectives(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	cfg, err := TuneConfig(DefaultMemoryModel(), d,
		pipeline.Config{P: 16, C: 2, K: pipeline.KAll})
	if err != nil {
		t.Fatal(err)
	}
	// A zero model gets the default platform, so the pipeline keeps
	// the tuned table instead of installing its own default over it.
	if cfg.Model.GPUsPerNode == 0 || cfg.Model.Collectives.AllReduce != cluster.Hierarchical {
		t.Fatalf("multi-node run tuned to %v on %+v", cfg.Model.Collectives.AllReduce, cfg.Model)
	}
	// An explicit ring on the model (where the CLIs put -allreduce)
	// survives tuning.
	model := cluster.Perlmutter()
	model.Collectives.AllReduce = cluster.Ring
	cfg, err = TuneConfig(DefaultMemoryModel(), d,
		pipeline.Config{P: 16, C: 2, K: pipeline.KAll, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model.Collectives.AllReduce != cluster.Ring {
		t.Fatalf("explicit ring overridden to %v", cfg.Model.Collectives.AllReduce)
	}
}
