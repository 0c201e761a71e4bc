package repro

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/autotune"
	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// tinyDataset returns a small learnable dataset for fast API tests.
func tinyDataset() *Dataset {
	return datasets.SBM(datasets.SBMConfig{
		N: 512, Classes: 4, Features: 8,
		IntraDeg: 10, InterDeg: 2, Noise: 0.5,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 1,
	})
}

func TestPublicSamplers(t *testing.T) {
	d := ProductsLike(Tiny)
	for _, s := range []Sampler{GraphSAGE(), LADIES(), core.FastGCN{}} {
		fanouts := d.Fanouts
		if s.Name() != "GraphSAGE" {
			fanouts = []int{d.LayerWidth}
		}
		bulk := SampleBulk(s, d.Graph.Adj, d.Batches(), fanouts, 1)
		if err := bulk.Validate(d.Graph.NumVertices()); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(bulk.Layers) != len(fanouts) {
			t.Fatalf("%s: layer count", s.Name())
		}
	}
}

func TestPublicTrainAndEvaluate(t *testing.T) {
	d := tinyDataset()
	cfg := TrainConfig{P: 2, C: 1, Epochs: 2, Seed: 1, LR: 0.02, MaxBatches: 8}
	res, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 || res.Params == nil {
		t.Fatal("train result incomplete")
	}
	acc := Evaluate(d, res.Params, cfg, d.Test)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
}

func TestPublicQuiverBaseline(t *testing.T) {
	d := ProductsLike(Tiny)
	res, err := Train(d, TrainConfig{P: 2, Algorithm: Quiver, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastEpoch().Total <= 0 {
		t.Fatal("baseline produced no time")
	}
}

func TestPublicFigures(t *testing.T) {
	opts := bench.Options{Profile: Tiny, GPUCounts: []int{4}, Seed: 4}
	if _, err := bench.Fig4(io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Fig5(io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Fig6(io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Fig7(io.Discard, "sage", opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bench.Table2(&buf)
	if buf.Len() == 0 {
		t.Fatal("table 2 empty")
	}
	if _, err := bench.Table3(io.Discard, Tiny); err != nil {
		t.Fatal(err)
	}
}

func TestPublicCostModel(t *testing.T) {
	m := Perlmutter()
	if m.GPUsPerNode != 4 {
		t.Fatal("Perlmutter model should have 4 GPUs per node")
	}
}

func TestPublicAccuracyExperiment(t *testing.T) {
	d := tinyDataset()
	res, err := bench.Accuracy(io.Discard, d, bench.Options{Epochs: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy <= 0 {
		t.Fatal("no accuracy measured")
	}
}

func TestPublicAutoTune(t *testing.T) {
	d := ProductsLike(Tiny)
	cfg, err := autotune.TuneConfig(autotune.DefaultMemoryModel(), d, TrainConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.C < 1 || 4%cfg.C != 0 {
		t.Fatalf("bad tuned c: %d", cfg.C)
	}
	if _, err := Train(d, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPublicEvaluateFull(t *testing.T) {
	d := tinyDataset()
	cfg := TrainConfig{P: 2, C: 1, Epochs: 3, Seed: 21, LR: 0.02}
	res, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := pipeline.EvaluateFull(d, res.Params, cfg, d.Test)
	if acc <= 0.3 {
		t.Fatalf("full-batch accuracy %.3f too low", acc)
	}
}

func TestPublicFigure7LadiesAndTables(t *testing.T) {
	opts := bench.Options{Profile: Tiny, GPUCounts: []int{4}, Seed: 22}
	if _, err := bench.Fig7(io.Discard, "ladies", opts); err != nil {
		t.Fatal(err)
	}
}

func TestPublicFaultRecovery(t *testing.T) {
	d := tinyDataset()
	cfg := TrainConfig{P: 4, C: 1, Epochs: 2, Seed: 31, LR: 0.02, MaxBatches: 8}
	clean, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CkptInterval = 1
	cfgCkpt := cfg
	ckpt, err := Train(d, cfgCkpt)
	if err != nil {
		t.Fatal(err)
	}
	cfgCkpt.Faults = resilience.FailAt(1, clean.Cluster.SimTime*0.9)
	failed, err := Train(d, cfgCkpt)
	if err != nil {
		t.Fatal(err)
	}
	rec := failed.Recovery
	if rec.Attempts != 2 || len(rec.Failures) != 1 || rec.WastedSim <= 0 {
		t.Fatalf("unexpected recovery stats: %+v", rec)
	}
	if rec.Failures[0] != (cluster.Failure{Rank: 1, At: clean.Cluster.SimTime * 0.9}) {
		t.Fatalf("fired failure mismatch: %+v", rec.Failures[0])
	}
	for i, got := range failed.Params {
		if got != ckpt.Params[i] {
			t.Fatalf("param %d diverged after recovery: %v != %v", i, got, ckpt.Params[i])
		}
	}
	if _, err := cliutil.ParseFaults("1@0.5,3@1.25"); err != nil {
		t.Fatal(err)
	}
	if p, err := cliutil.ParseFaults("default"); err != nil || p != nil {
		t.Fatalf("default spelling: plan %v err %v", p, err)
	}
}

func TestPublicResilienceExperiment(t *testing.T) {
	opts := bench.Options{Profile: Tiny, Seed: 33, MaxBatches: 2}
	rows, err := bench.Resilience(io.Discard, "products", 4, []int{0, 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows (2 strategies x 2 intervals), got %d", len(rows))
	}
	for _, r := range rows {
		if r.Attempts < 2 {
			t.Fatalf("%s interval %d: failure did not fire (attempts %d)", r.Strategy, r.Interval, r.Attempts)
		}
	}
}
