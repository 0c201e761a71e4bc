package pipeline_test

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// Run memory — stage arenas, fetch workspaces, feature matrices,
// gradients, step workspaces — is recycled from run to run through the
// process's free lists. These tests pin that recycling never changes a
// result: whatever an earlier run left on the lists, concurrently or
// after a failure, a run computes and charges what a run in a fresh
// process does.

// recycleRecovery is the configuration the failure test runs: the
// partitioned algorithm, so an attempt that dies holds arenas mid-call.
var recycleRecovery = pipeline.Config{P: 8, C: 2, Algorithm: pipeline.GraphPartitioned,
	SparsityAware: true, Epochs: 2, MaxBatches: 4, CkptInterval: 1, Seed: 17}

// coldRecovery is recycleRecovery's clean result, computed before any
// test has put anything on a free list.
var coldRecovery *pipeline.Result

func TestMain(m *testing.M) {
	var err error
	if coldRecovery, err = pipeline.Run(datasets.ProductsLike(datasets.Tiny), recycleRecovery); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// sameResult reports how b differs from a in simulated time, per-epoch
// stats (loss included), parameters or cluster accounting.
func sameResult(a, b *pipeline.Result) error {
	switch {
	case a.Cluster.SimTime != b.Cluster.SimTime:
		return fmt.Errorf("SimTime %.17g vs %.17g", a.Cluster.SimTime, b.Cluster.SimTime)
	case !reflect.DeepEqual(a.Epochs, b.Epochs):
		return fmt.Errorf("epoch stats %+v vs %+v", a.Epochs, b.Epochs)
	case !reflect.DeepEqual(a.Params, b.Params):
		return fmt.Errorf("trained parameters differ")
	case !reflect.DeepEqual(a.Cluster, b.Cluster):
		return fmt.Errorf("cluster accounting differs")
	}
	return nil
}

// recycleRun is one training driver at one configuration.
type recycleRun struct {
	name string
	run  func(d *datasets.Dataset) (*pipeline.Result, error)
}

func recycleRuns(be cluster.Backend) []recycleRun {
	bulk := func(name string, cfg pipeline.Config) recycleRun {
		cfg.Backend, cfg.Epochs, cfg.MaxBatches, cfg.Seed = be, 2, 4, 5
		return recycleRun{name, func(d *datasets.Dataset) (*pipeline.Result, error) { return pipeline.Run(d, cfg) }}
	}
	return []recycleRun{
		bulk("replicated", pipeline.Config{P: 4, C: 2}),
		bulk("partitioned sage", pipeline.Config{P: 8, C: 2, Algorithm: pipeline.GraphPartitioned, SparsityAware: true}),
		bulk("partitioned ladies", pipeline.Config{P: 8, C: 2, Algorithm: pipeline.GraphPartitioned, SparsityAware: true, Sampler: "ladies"}),
		{"quiver", func(d *datasets.Dataset) (*pipeline.Result, error) {
			return baseline.RunQuiver(d, baseline.QuiverConfig{P: 4, Epochs: 2, MaxBatches: 4, Seed: 5, Backend: be})
		}},
	}
}

// Back-to-back runs of one driver reuse each other's memory and must
// agree bit for bit.
func TestRecycledRunsRepeat(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	for _, be := range []cluster.Backend{cluster.GoroutineBackend, cluster.DESBackend} {
		for _, rr := range recycleRuns(be) {
			var first *pipeline.Result
			for i := 0; i < 3; i++ {
				res, err := rr.run(d)
				if err != nil {
					t.Fatalf("%v/%s run %d: %v", be, rr.name, i, err)
				}
				if first == nil {
					first = res
				} else if err := sameResult(first, res); err != nil {
					t.Errorf("%v/%s run %d differs from run 0: %v", be, rr.name, i, err)
				}
			}
		}
	}
}

// Runs of different shapes take and give back memory concurrently; each
// must still equal its serial result.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	runs := recycleRuns(cluster.GoroutineBackend)
	serial := make([]*pipeline.Result, len(runs))
	for i, rr := range runs {
		res, err := rr.run(d)
		if err != nil {
			t.Fatalf("%s: %v", rr.name, err)
		}
		serial[i] = res
	}
	var wg sync.WaitGroup
	for i, rr := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				res, err := rr.run(d)
				if err != nil {
					t.Errorf("%s: %v", rr.name, err)
					return
				}
				if err := sameResult(serial[i], res); err != nil {
					t.Errorf("%s run concurrently with other shapes: %v", rr.name, err)
				}
			}
		}()
	}
	wg.Wait()
}

// A failed attempt's memory is dropped, and what it did give back is
// whole: a clean run after a failure equals a clean run in a process
// whose lists were empty.
func TestCleanRunAfterFailureMatchesColdRun(t *testing.T) {
	d := datasets.ProductsLike(datasets.Tiny)
	failing := recycleRecovery
	failing.Faults = resilience.FailAt(3, coldRecovery.Cluster.SimTime/2)
	failed, err := pipeline.Run(d, failing)
	if err != nil {
		t.Fatal(err)
	}
	if failed.Recovery == nil || failed.Recovery.Attempts != 2 {
		t.Fatalf("recovery = %+v, want a failed attempt and a restart", failed.Recovery)
	}
	clean, err := pipeline.Run(d, recycleRecovery)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(coldRecovery, clean); err != nil {
		t.Fatalf("clean run after a failure differs from one on empty lists: %v", err)
	}
}
