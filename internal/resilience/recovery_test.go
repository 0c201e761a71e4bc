package resilience_test

import (
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// TestCheckpointShortensRecovery pins the point of checkpointing: with
// an every-epoch checkpoint interval, a late failure resumes from a
// late epoch and wastes less simulated work than the same failure with
// no checkpoints.
func TestCheckpointShortensRecovery(t *testing.T) {
	d := datasets.SBM(datasets.SBMConfig{
		N: 128, Classes: 4, Features: 4,
		IntraDeg: 6, InterDeg: 2, Noise: 0.5,
		BatchSize: 16, Fanouts: []int{3, 2}, LayerWidth: 8, Seed: 11,
	})
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
