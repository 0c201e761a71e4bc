package resilience_test

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// recoveryDataset is the same tiny SBM instance the backend
// differential sweep uses: large enough to exercise every phase,
// small enough that a trial (clean run + failed run + restarts, on
// both backends) stays in the low milliseconds.
func recoveryDataset() *datasets.Dataset {
	return datasets.SBM(datasets.SBMConfig{
		N: 128, Classes: 4, Features: 4,
		IntraDeg: 6, InterDeg: 2, Noise: 0.5,
		BatchSize: 16, Fanouts: []int{3, 2}, LayerWidth: 8, Seed: 11,
	})
}

// TestDifferentialCrashRecovery is the headline suite for the
// resilience subsystem: across randomized (seed, fail-rank, fail-time,
// checkpoint-interval) trials, a run that loses a rank mid-training
// and restarts — from its latest checkpoint when one exists, from
// scratch otherwise — must finish with a Result bit-identical to the
// same configuration run without any failure. "Bit-identical" is the
// full Result surface the backend differential pins: per-epoch stats,
// trained parameters (float-for-float), effective bulk, and the
// complete simulated-time cluster accounting. Both backends, all three
// training strategies.
//
// Topology stays nil: the contention ledger is deliberately not part
// of a checkpoint, so exact recovery is only promised for the pure α–β
// model — the same scope as cross-backend bit-identity.
func TestDifferentialCrashRecovery(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 12
	}
	// GNN_RECOVERY_TRIALS overrides the sweep size, mirroring
	// GNN_DIFFERENTIAL_TRIALS: CI's race job runs a reduced sweep.
	if s := os.Getenv("GNN_RECOVERY_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad GNN_RECOVERY_TRIALS %q: want a positive integer", s)
		}
		trials = n
	}
	d := recoveryDataset()
	tables := []cluster.Collectives{
		{},
		{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise},
		{AllReduce: cluster.Hierarchical},
	}
	models := make([]cluster.CostModel, len(tables))
	for i, tbl := range tables {
		models[i] = cluster.Perlmutter()
		models[i].Collectives = tbl
	}
	rng := rand.New(rand.NewSource(20250613))
	run := func(cfg pipeline.Config, be cluster.Backend) *pipeline.Result {
		t.Helper()
		cfg.Backend = be
		res, err := pipeline.Run(d, cfg)
		if err != nil {
			t.Fatalf("%+v backend=%v: %v", cfg, be, err)
		}
		return res
	}
	fired := 0
	for trial := 0; trial < trials; trial++ {
		ps := []int{2, 4, 8}
		cfg := pipeline.Config{
			P:          ps[rng.Intn(len(ps))],
			Epochs:     2 + rng.Intn(2),
			Seed:       rng.Int63n(1 << 20),
			MaxBatches: 1 + rng.Intn(2),
			K:          rng.Intn(5), // 0 = KAll
			Model:      models[rng.Intn(len(models))],
			// 0 = no checkpoints (restart from scratch); otherwise a
			// boundary every 1 or 2 epochs.
			CkptInterval: rng.Intn(3),
		}
		divs := []int{1}
		for c := 2; c <= cfg.P; c++ {
			if cfg.P%c == 0 {
				divs = append(divs, c)
			}
		}
		cfg.C = divs[rng.Intn(len(divs))]
		if rng.Intn(2) == 1 && cfg.C > 1 && cfg.P%(cfg.C*cfg.C) == 0 {
			cfg.Algorithm = pipeline.GraphPartitioned
			cfg.SparsityAware = rng.Intn(2) == 1
		} else {
			cfg.Overlap = rng.Intn(2) == 1
		}

		for _, be := range []cluster.Backend{cluster.GoroutineBackend, cluster.DESBackend} {
			clean := run(cfg, be)
			if clean.Recovery != nil && clean.Recovery.Attempts != 1 {
				t.Fatalf("trial %d backend=%v: unfailed run took %d attempts",
					trial, be, clean.Recovery.Attempts)
			}

			// Draw the failure inside the clean run's simulated span so
			// it almost always fires; mostly single failures (the spec's
			// trial shape), with an occasional two-failure plan to force
			// chained restarts.
			failCfg := cfg
			nFail := 1
			if trial%7 == 0 {
				nFail = 2
			}
			failCfg.Faults = RandomPlan(
				rng.Int63(), cfg.P, nFail,
				clean.Cluster.SimTime*0.05, clean.Cluster.SimTime*0.75)
			failed := run(failCfg, be)

			if failed.Recovery == nil {
				t.Fatalf("trial %d backend=%v: failed run reported no recovery stats", trial, be)
			}
			rec := failed.Recovery
			if rec.Attempts >= 2 {
				fired++
				if len(rec.Failures) != rec.Attempts-1 || len(rec.RestartEpochs) != rec.Attempts-1 {
					t.Fatalf("trial %d backend=%v: recovery stats inconsistent: %+v", trial, be, rec)
				}
				if cfg.CkptInterval == 0 {
					for _, e := range rec.RestartEpochs {
						if e != 0 {
							t.Fatalf("trial %d backend=%v: restarted from epoch %d with no checkpoints", trial, be, e)
						}
					}
				}
			}

			if !reflect.DeepEqual(clean.Epochs, failed.Epochs) {
				t.Fatalf("trial %d backend=%v %+v: epoch stats diverge after recovery\nclean:  %+v\nfailed: %+v",
					trial, be, failCfg, clean.Epochs, failed.Epochs)
			}
			if !reflect.DeepEqual(clean.Params, failed.Params) {
				t.Fatalf("trial %d backend=%v %+v: trained parameters diverge after recovery", trial, be, failCfg)
			}
			if clean.EffectiveK != failed.EffectiveK {
				t.Fatalf("trial %d backend=%v: EffectiveK %d vs %d", trial, be, clean.EffectiveK, failed.EffectiveK)
			}
			if !reflect.DeepEqual(clean.Cluster, failed.Cluster) {
				t.Fatalf("trial %d backend=%v %+v: cluster accounting diverges after recovery\nclean:  %+v\nfailed: %+v",
					trial, be, failCfg, clean.Cluster, failed.Cluster)
			}
		}
	}
	// The window [5%, 75%] of the clean simulated span should make the
	// vast majority of injected failures fire; if almost none did, the
	// suite is silently testing nothing.
	if fired < trials {
		t.Fatalf("only %d/%d trial-backend runs actually fired a failure; the injection window is wrong", fired, 2*trials)
	}
	t.Logf("%d/%d trial-backend runs fired at least one failure", fired, 2*trials)
}

// TestRecoveryFromScratchDeterministic pins the no-checkpoint restart
// path explicitly on a fixed config: with CkptInterval 0 a mid-run
// failure throws away everything, and the rebuilt-from-scratch second
// attempt must still reproduce the unfailed run exactly (fresh model,
// fresh optimizer, fresh cluster — no state leaks across attempts).
func TestRecoveryFromScratchDeterministic(t *testing.T) {
	d := recoveryDataset()
	cfg := pipeline.Config{P: 4, Epochs: 2, Seed: 7, MaxBatches: 2}
	clean, err := pipeline.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = resilience.FailAt(2, clean.Cluster.SimTime/2)
	failed, err := pipeline.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if failed.Recovery == nil || failed.Recovery.Attempts != 2 {
		t.Fatalf("recovery = %+v, want exactly 2 attempts", failed.Recovery)
	}
	if failed.Recovery.WastedSim <= 0 {
		t.Fatalf("WastedSim = %v, want > 0 for a from-scratch restart", failed.Recovery.WastedSim)
	}
	if !reflect.DeepEqual(clean.Params, failed.Params) || !reflect.DeepEqual(clean.Cluster, failed.Cluster) {
		t.Fatal("from-scratch recovery is not bit-identical to the unfailed run")
	}
}

// TestCheckpointShortensRecovery pins the point of checkpointing: with
// an every-epoch checkpoint interval, a late failure resumes from a
// late epoch and wastes less simulated work than the same failure with
// no checkpoints.
func TestCheckpointShortensRecovery(t *testing.T) {
	d := recoveryDataset()
	base := pipeline.Config{P: 4, Epochs: 4, Seed: 3, MaxBatches: 2}
	clean, err := pipeline.Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	failAt := clean.Cluster.SimTime * 0.9

	scratch := base
	scratch.Faults = resilience.FailAt(1, failAt)
	sres, err := pipeline.Run(d, scratch)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := base
	ckpt.CkptInterval = 1
	ckptClean, err := pipeline.Run(d, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Faults = resilience.FailAt(1, ckptClean.Cluster.SimTime*0.9)
	cres, err := pipeline.Run(d, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Recovery.Attempts != 2 || cres.Recovery.Attempts != 2 {
		t.Fatalf("attempts scratch=%+v ckpt=%+v, want 2 and 2", sres.Recovery, cres.Recovery)
	}
	if got := cres.Recovery.RestartEpochs[0]; got < 1 {
		t.Fatalf("checkpointed run restarted from epoch %d, want a later boundary", got)
	}
	if cres.Recovery.WastedSim >= sres.Recovery.WastedSim {
		t.Fatalf("checkpointing did not reduce wasted work: %v (ckpt) vs %v (scratch)",
			cres.Recovery.WastedSim, sres.Recovery.WastedSim)
	}
	if !reflect.DeepEqual(ckptClean.Params, cres.Params) || !reflect.DeepEqual(ckptClean.Cluster, cres.Cluster) {
		t.Fatal("checkpointed recovery is not bit-identical to its unfailed twin")
	}
}

// RandomPlan draws k failures deterministically from seed: ranks
// uniform over [0, p), fail times uniform over [minAt, maxAt). Multiple
// failures may land on one rank (the earliest fires; after a restart
// retires it, a later one can fire on the next attempt). The
// randomized differential trials draw their plans here.
func RandomPlan(seed int64, p, k int, minAt, maxAt float64) *cluster.FaultPlan {
	if k <= 0 || p <= 0 || !(maxAt > minAt) || !(minAt >= 0) {
		panic(fmt.Sprintf("resilience: bad RandomPlan args p=%d k=%d window=[%v,%v)", p, k, minAt, maxAt))
	}
	rng := rand.New(rand.NewSource(seed))
	fs := make([]cluster.Failure, k)
	for i := range fs {
		at := minAt + rng.Float64()*(maxAt-minAt)
		if !(at > 0) {
			at = minAt + (maxAt-minAt)/2
		}
		fs[i] = cluster.Failure{Rank: rng.Intn(p), At: at}
	}
	return &cluster.FaultPlan{Failures: fs}
}

func TestRandomPlanDeterministicAndBounded(t *testing.T) {
	a := RandomPlan(42, 8, 5, 0.1, 2.0)
	b := RandomPlan(42, 8, 5, 0.1, 2.0)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different plans: %q vs %q", a, b)
	}
	if len(a.Failures) != 5 {
		t.Fatalf("plan has %d failures, want 5", len(a.Failures))
	}
	if err := a.Validate(8); err != nil {
		t.Fatal(err)
	}
	for _, f := range a.Failures {
		if f.At < 0.1 || f.At >= 2.0 {
			t.Fatalf("failure time %v outside [0.1, 2.0)", f.At)
		}
	}
	if c := RandomPlan(43, 8, 5, 0.1, 2.0); c.String() == a.String() {
		t.Fatal("different seeds produced identical plans")
	}
}
