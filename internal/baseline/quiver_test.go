package baseline

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

func TestRunQuiverBasic(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	res, err := RunQuiver(d, QuiverConfig{P: 4, Seed: 1})
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
}

func TestQuiverUVASamplingSlower(t *testing.T) {
	// Figure 5: GPU sampling outperforms UVA sampling because UVA pays
	// the PCIe link on every adjacency access.
	d, err := datasets.ByName("protein", datasets.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := RunQuiver(d, QuiverConfig{P: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	uva, err := RunQuiver(d, QuiverConfig{P: 4, UVA: true, Seed: 2})
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
	res, err := RunQuiver(d, QuiverConfig{P: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	model := res.Cfg // zero; just ensure struct accessible
	_ = model
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
	res, err := RunQuiver(d, QuiverConfig{P: 2, Epochs: 4, Seed: 4})
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

// Bad input is an error from the one validation both drivers share —
// never a panic inside the first attempt, never a silent fallback. Every
// case runs through pipeline.Run, and through RunQuiver when
// QuiverConfig can express it.
func TestBadInputIsAnErrorForBothDrivers(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	cases := []struct {
		name   string
		cfg    pipeline.Config
		quiver *QuiverConfig
	}{
		{"p = 0", pipeline.Config{P: 0}, &QuiverConfig{P: 0}},
		{"p < 0", pipeline.Config{P: -1}, &QuiverConfig{P: -1}},
		{"epochs < 0", pipeline.Config{P: 2, Epochs: -1}, &QuiverConfig{P: 2, Epochs: -1}},
		{"max batches < 0", pipeline.Config{P: 2, MaxBatches: -3}, &QuiverConfig{P: 2, MaxBatches: -3}},
		{"lr < 0", pipeline.Config{P: 2, LR: -0.1}, nil},
		{"ckpt interval < 0", pipeline.Config{P: 2, CkptInterval: -1}, &QuiverConfig{P: 2, CkptInterval: -1}},
		{"fault rank outside p", pipeline.Config{P: 2, Faults: resilience.FailAt(2, 1)},
			&QuiverConfig{P: 2, Faults: resilience.FailAt(2, 1)}},
		{"unknown sampler", pipeline.Config{P: 2, Sampler: "bogus"}, nil},
		{"unknown algorithm", pipeline.Config{P: 2, Algorithm: 7}, nil},
		{"c does not divide p", pipeline.Config{P: 4, C: 3}, nil},
		{"partitioned, c^2 does not divide p", pipeline.Config{P: 8, C: 4, Algorithm: pipeline.GraphPartitioned}, nil},
	}
	mustErr := func(t *testing.T, driver string, run func() error) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s panicked: %v", driver, p)
			}
		}()
		if err := run(); err == nil {
			t.Errorf("%s accepted the config", driver)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustErr(t, "pipeline.Run", func() error { _, err := pipeline.Run(d, tc.cfg); return err })
			if tc.quiver != nil {
				mustErr(t, "RunQuiver", func() error { _, err := RunQuiver(d, *tc.quiver); return err })
			}
		})
	}
}

func TestQuiverLossAggregatesAcrossRanksUnevenBatches(t *testing.T) {
	// 3 batches over p=2 ranks: rank 0 counts 2, rank 1 counts 1. The
	// epoch loss must aggregate all 3 batch losses (the old rank-0-only
	// report covered 2 and misweighted the epoch).
	d := datasets.ProductsLike(datasets.Tiny)
	res, err := RunQuiver(d, QuiverConfig{P: 2, MaxBatches: 3, Seed: 5})
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
// baseline bit-identical in simulated time and loss.
func TestGoldenQuiverBitIdentical(t *testing.T) {
	d := datasets.SBM(datasets.SBMConfig{
		N: 512, Classes: 4, Features: 8,
		IntraDeg: 10, InterDeg: 2, Noise: 0.5,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 7,
	})
	for _, be := range []cluster.Backend{cluster.GoroutineBackend, cluster.DESBackend} {
		res, err := RunQuiver(d, QuiverConfig{P: 4, Epochs: 2, Seed: 5, MaxBatches: 8, Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Cluster.SimTime, 0.00085561327706666656; got != want {
			t.Errorf("%v: SimTime = %.17g, want %.17g", be, got, want)
		}
		if got, want := res.LastEpoch().Total, 0.00064173826279999985; got != want {
			t.Errorf("%v: Total = %.17g, want %.17g", be, got, want)
		}
		if got, want := res.LastEpoch().Loss, 0.2484752598843977; got != want {
			t.Errorf("%v: Loss = %.17g, want %.17g", be, got, want)
		}
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
	flat, err := RunQuiver(d, QuiverConfig{P: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := RunQuiver(d, QuiverConfig{P: 4, Seed: 3,
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
	if _, err := RunQuiver(d, QuiverConfig{P: 4, Seed: 3,
		Model: onModel(cluster.Collectives{AllReduce: cluster.Pairwise})}); err == nil {
		t.Fatal("invalid table accepted")
	}
}

// Contention-off golden identity per collective algorithm for the
// Quiver baseline: Topology == nil must keep every algorithm's
// schedule bit-identical to the pre-topology code (the flat entry
// equals the pre-refactor golden above).
func TestGoldenQuiverContentionOffPerAlgorithm(t *testing.T) {
	d := datasets.SBM(datasets.SBMConfig{
		N: 512, Classes: 4, Features: 8,
		IntraDeg: 10, InterDeg: 2, Noise: 0.5,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 7,
	})
	golden := []struct {
		table     string
		tbl       cluster.Collectives
		sim, loss float64
	}{
		{"flat", cluster.Collectives{}, 0.00085561327706666656, 0.2484752598843977},
		{"ring", cluster.Collectives{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise},
			0.0008886240504, 0.2484752598843977},
		{"hier", cluster.Collectives{AllReduce: cluster.Hierarchical},
			0.00085561327706666656, 0.2484752598843977},
	}
	for _, g := range golden {
		for _, be := range []cluster.Backend{cluster.GoroutineBackend, cluster.DESBackend} {
			res, err := RunQuiver(d, QuiverConfig{P: 4, Epochs: 2, Seed: 5, MaxBatches: 8,
				Model: onModel(g.tbl), Topology: nil, Backend: be})
			if err != nil {
				t.Fatalf("%s/%v: %v", g.table, be, err)
			}
			if got := res.Cluster.SimTime; got != g.sim {
				t.Errorf("%s/%v: SimTime = %.17g, want %.17g", g.table, be, got, g.sim)
			}
			if got := res.LastEpoch().Loss; got != g.loss {
				t.Errorf("%s/%v: Loss = %.17g, want %.17g", g.table, be, got, g.loss)
			}
		}
	}
}

// The Quiver baseline contends like the pipeline: an oversubscribed
// topology stretches the schedule without touching training values.
func TestQuiverOversubscribedTopologySlows(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	ideal, err := RunQuiver(d, QuiverConfig{P: 8, Seed: 3, MaxBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	over, err := RunQuiver(d, QuiverConfig{P: 8, Seed: 3, MaxBatches: 8,
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
	if _, err := RunQuiver(d, QuiverConfig{P: 4, Seed: 3,
		Topology: &cluster.Topology{Name: "bad", Oversub: -1}}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}
