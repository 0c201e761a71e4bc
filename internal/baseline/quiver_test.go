package baseline

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

func TestRunQuiverBasic(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	res, err := pipeline.Run(d, pipeline.Config{P: 4, Algorithm: pipeline.Quiver, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := res.LastEpoch()
	if e.Sampling <= 0 || e.FeatureFetch <= 0 || e.Propagation <= 0 {
		t.Fatalf("breakdown missing: %+v", e)
	}
	if res.Params == nil {
		t.Fatal("no trained parameters")
	}
	if res.Cfg.Algorithm != pipeline.Quiver || res.Cfg.C != 1 || res.EffectiveK != 4 {
		t.Fatalf("Cfg.Algorithm = %d, Cfg.C = %d, EffectiveK = %d; want Quiver, 1 and P = 4",
			res.Cfg.Algorithm, res.Cfg.C, res.EffectiveK)
	}
}

// RunQuiver, the shim benchmark/ still calls, is pipeline.Run with
// Algorithm Quiver: the same Result, field for field.
func TestRunQuiverForwardsToRun(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	shim, err := RunQuiver(d, QuiverConfig{P: 4, Epochs: 2, MaxBatches: 8, Seed: 6, CkptInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := pipeline.Run(d, pipeline.Config{P: 4, Algorithm: pipeline.Quiver, Epochs: 2, MaxBatches: 8, Seed: 6, CkptInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shim, run) {
		t.Fatalf("RunQuiver and pipeline.Run differ:\n%+v\n%+v", shim, run)
	}
}

func TestQuiverUVASamplingSlower(t *testing.T) {
	// Figure 5: GPU sampling outperforms UVA sampling because UVA pays
	// the PCIe link on every adjacency access.
	d, err := datasets.ByName("protein", datasets.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := pipeline.Run(d, pipeline.Config{P: 4, Algorithm: pipeline.Quiver, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	uva, err := pipeline.Run(d, pipeline.Config{P: 4, Algorithm: pipeline.QuiverUVA, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if uva.LastEpoch().Sampling <= gpu.LastEpoch().Sampling {
		t.Fatalf("UVA sampling (%v) not slower than GPU (%v)",
			uva.LastEpoch().Sampling, gpu.LastEpoch().Sampling)
	}
}

func TestQuiverPaysPerBatchKernelOverheads(t *testing.T) {
	// The Quiver strategy launches sampling kernels per minibatch; the
	// bulk pipeline launches them per bulk. With identical work, the
	// baseline's sampling time must exceed a single-bulk run's at the
	// same p. (Indirect check: sampling time strictly positive and at
	// least the kernel floor of batches x layers x launches.)
	d := datasets.ProductsLike(datasets.Tiny)
	res, err := pipeline.Run(d, pipeline.Config{P: 1, Algorithm: pipeline.Quiver, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	minKernelTime := float64(d.NumBatches()*2*4) * 10e-6 // layers x ~4 kernels
	if res.LastEpoch().Sampling < minKernelTime {
		t.Fatalf("sampling %v below kernel floor %v", res.LastEpoch().Sampling, minKernelTime)
	}
}

func TestQuiverTrainsLoss(t *testing.T) {
	d := datasets.SBM(datasets.SBMConfig{
		N: 512, Classes: 4, Features: 8,
		IntraDeg: 10, InterDeg: 2, Noise: 0.5,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 4,
	})
	res, err := pipeline.Run(d, pipeline.Config{P: 2, Algorithm: pipeline.Quiver, Epochs: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[3].Loss >= res.Epochs[0].Loss {
		t.Fatalf("loss did not improve: %v -> %v", res.Epochs[0].Loss, res.Epochs[3].Loss)
	}
}

func TestCPULadiesReferencePositiveAndScalesWithBatches(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	full, err := CPULadiesReference(d, 1, 0, 5, cluster.Perlmutter())
	if err != nil {
		t.Fatal(err)
	}
	if full <= 0 {
		t.Fatal("reference time not positive")
	}
	// Extrapolation from fewer batches should land near the full time.
	part, err := CPULadiesReference(d, 1, 2, 5, cluster.Perlmutter())
	if err != nil {
		t.Fatal(err)
	}
	if part <= 0 {
		t.Fatal("extrapolated time not positive")
	}
	ratio := part / full
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("extrapolation ratio %v out of range", ratio)
	}
}

// Bad input is an error from the one validation every algorithm
// shares — never a panic inside the first attempt, never a silent
// fallback. Every case runs through pipeline.Run, and again as Quiver
// when quiver is set; the quiver rows are what only Quiver rejects.
func TestBadInputIsAnErrorForBothDrivers(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	q := pipeline.Quiver
	cases := []struct {
		name   string
		cfg    pipeline.Config
		quiver bool
	}{
		{"p = 0", pipeline.Config{P: 0}, true},
		{"p < 0", pipeline.Config{P: -1}, true},
		{"epochs < 0", pipeline.Config{P: 2, Epochs: -1}, true},
		{"max batches < 0", pipeline.Config{P: 2, MaxBatches: -3}, true},
		{"lr < 0", pipeline.Config{P: 2, LR: -0.1}, true},
		{"ckpt interval < 0", pipeline.Config{P: 2, CkptInterval: -1}, true},
		{"fault rank outside p", pipeline.Config{P: 2, Faults: resilience.FailAt(2, 1)}, true},
		{"fault rank outside p, plan on a model with no machine", pipeline.Config{P: 2, Model: cluster.CostModel{Faults: resilience.FailAt(2, 1)}}, true},
		{"unknown sampler", pipeline.Config{P: 2, Sampler: "bogus"}, true},
		{"unknown algorithm", pipeline.Config{P: 2, Algorithm: 7}, false},
		{"c does not divide p", pipeline.Config{P: 4, C: 3}, false},
		{"partitioned, c^2 does not divide p", pipeline.Config{P: 8, C: 4, Algorithm: pipeline.GraphPartitioned}, false},
		{"quiver, c = 2", pipeline.Config{P: 4, C: 2, Algorithm: q}, false},
		{"quiver, k = 4", pipeline.Config{P: 4, K: 4, Algorithm: q}, false},
		{"quiver, sparsity-aware", pipeline.Config{P: 4, SparsityAware: true, Algorithm: q}, false},
		{"quiver, ladies", pipeline.Config{P: 4, Sampler: "ladies", Algorithm: q}, false},
	}
	mustErr := func(t *testing.T, cfg pipeline.Config) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("algorithm %d panicked: %v", cfg.Algorithm, p)
			}
		}()
		if _, err := pipeline.Run(d, cfg); err == nil {
			t.Errorf("algorithm %d accepted the config", cfg.Algorithm)
		} else if strings.Contains(err.Error(), "\n") {
			t.Errorf("error %q spans lines", err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustErr(t, tc.cfg)
			if tc.quiver {
				tc.cfg.Algorithm = q
				mustErr(t, tc.cfg)
			}
		})
	}
}

func TestQuiverLossAggregatesAcrossRanksUnevenBatches(t *testing.T) {
	// 3 batches over p=2 ranks: rank 0 counts 2, rank 1 counts 1. The
	// epoch loss must aggregate all 3 batch losses (the old rank-0-only
	// report covered 2 and misweighted the epoch).
	d := datasets.ProductsLike(datasets.Tiny)
	res, err := pipeline.Run(d, pipeline.Config{P: 2, Algorithm: pipeline.Quiver, MaxBatches: 3, Seed: 5})
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

// Golden values captured on the pre-refactor code: the pluggable
// collective-algorithm layer must keep the default (FlatTree) Quiver
// baseline bit-identical in simulated time and loss. It runs through
// RunQuiver, the shim benchmark/ calls.
func TestGoldenQuiverBitIdentical(t *testing.T) {
	res, err := RunQuiver(goldenSBM(), QuiverConfig{P: 4, Epochs: 2, Seed: 5, MaxBatches: 8})
	checkGolden(t, "flat", res, err, 0.00085561327706666656, 0.00064173826279999985, 0.2484752598843977)
}

// goldenSBM is the dataset every Quiver golden runs on.
func goldenSBM() *datasets.Dataset {
	return datasets.SBM(datasets.SBMConfig{
		N: 512, Classes: 4, Features: 8,
		IntraDeg: 10, InterDeg: 2, Noise: 0.5,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 7,
	})
}

// checkGolden pins the simulated time, last-epoch total and loss of a
// run that returned res and err bit-for-bit.
func checkGolden(t *testing.T, name string, res *pipeline.Result, err error, wantSim, wantTotal, wantLoss float64) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := [3]float64{res.Cluster.SimTime, res.LastEpoch().Total, res.LastEpoch().Loss}
	if want := [3]float64{wantSim, wantTotal, wantLoss}; got != want {
		t.Errorf("%s: (SimTime, Total, Loss) = %.17g, want %.17g", name, got, want)
	}
}

// onModel returns the default platform charging collectives under tbl.
func onModel(tbl cluster.Collectives) cluster.CostModel {
	m := cluster.Perlmutter()
	m.Collectives = tbl
	return m
}

// The baseline threads algorithm selection like the pipeline: a ring
// gradient all-reduce changes the schedule, never the training values.
func TestQuiverCollectivesSelection(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	flat, err := pipeline.Run(d, pipeline.Config{P: 4, Algorithm: pipeline.Quiver, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := pipeline.Run(d, pipeline.Config{P: 4, Algorithm: pipeline.Quiver, Seed: 3,
		Model: onModel(cluster.Collectives{AllReduce: cluster.Ring})})
	if err != nil {
		t.Fatal(err)
	}
	if flat.LastEpoch().Loss != ring.LastEpoch().Loss {
		t.Fatal("ring selection changed training values")
	}
	if flat.Cluster.SimTime == ring.Cluster.SimTime {
		t.Fatal("ring selection did not change the schedule")
	}
	if _, err := pipeline.Run(d, pipeline.Config{P: 4, Algorithm: pipeline.Quiver, Seed: 3,
		Model: onModel(cluster.Collectives{AllReduce: cluster.Pairwise})}); err == nil {
		t.Fatal("invalid table accepted")
	}
}

// Contention-off golden identity per collective algorithm for the
// Quiver baseline: Topology == nil must keep every algorithm's
// schedule bit-identical to the pre-topology code. The flat entry is
// TestGoldenQuiverBitIdentical's. Total was captured on the code
// before Quiver became a pipeline.Algorithm.
func TestGoldenQuiverContentionOffPerAlgorithm(t *testing.T) {
	d := goldenSBM()
	golden := []struct {
		table            string
		tbl              cluster.Collectives
		sim, total, loss float64
	}{
		{"ring", cluster.Collectives{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise},
			0.0008886240504, 0.0006664963427999999, 0.2484752598843977},
		{"hier", cluster.Collectives{AllReduce: cluster.Hierarchical},
			0.00085561327706666656, 0.00064173826279999985, 0.2484752598843977},
	}
	for _, g := range golden {
		res, err := pipeline.Run(d, pipeline.Config{P: 4, Algorithm: pipeline.Quiver,
			Epochs: 2, Seed: 5, MaxBatches: 8, Model: onModel(g.tbl)})
		checkGolden(t, g.table, res, err, g.sim, g.total, g.loss)
	}
}

// The Quiver baseline contends like the pipeline: an oversubscribed
// topology stretches the schedule without touching training values.
func TestQuiverOversubscribedTopologySlows(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	ideal, err := pipeline.Run(d, pipeline.Config{P: 8, Algorithm: pipeline.Quiver, Seed: 3, MaxBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	over, err := pipeline.Run(d, pipeline.Config{P: 8, Algorithm: pipeline.Quiver, Seed: 3, MaxBatches: 8,
		Topology: cluster.OversubscribedTopology(4)})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.LastEpoch().Loss != over.LastEpoch().Loss {
		t.Fatal("contention changed Quiver training values")
	}
	if over.Cluster.SimTime <= ideal.Cluster.SimTime {
		t.Fatalf("oversubscription did not slow Quiver: %v vs %v",
			over.Cluster.SimTime, ideal.Cluster.SimTime)
	}
	if _, err := pipeline.Run(d, pipeline.Config{P: 4, Algorithm: pipeline.Quiver, Seed: 3,
		Topology: &cluster.Topology{Name: "bad", Oversub: -1}}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}
