package pipeline_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// The differential harness pins what the simulator promises about
// *where* work runs: it never changes *what* is computed. One generator
// draws tiny runs over every strategy (replicated, 1.5D partitioned
// sparsity-aware and oblivious, Quiver on GPU and UVA), every sampler,
// grid, bulk size, schedule, checkpoint interval, collective table,
// topology and backend. Each row of the transformation table runs a
// spec's twin and holds it, by one of two oracles, to the spec's own run.

// differentialData is large enough to exercise every phase and small
// enough that a spec runs in milliseconds.
var differentialData = datasets.SBM(datasets.SBMConfig{
	N: 128, Classes: 4, Features: 4,
	IntraDeg: 6, InterDeg: 2, Noise: 0.5,
	BatchSize: 16, Fanouts: []int{3, 2}, LayerWidth: 8, Seed: 11,
})

// spec is one generated run: a pipeline.Config run through pipeline.Run,
// or through baseline.RunQuiver when quiver names the baseline's mode.
type spec struct {
	pipeline.Config
	quiver string // "gpu" or "uva"; "" is the bulk strategy
}

func (s spec) run() (*pipeline.Result, error) {
	if s.quiver == "" {
		return pipeline.Run(differentialData, s.Config)
	}
	return baseline.RunQuiver(differentialData, baseline.QuiverConfig{
		P: s.P, UVA: s.quiver == "uva", Epochs: s.Epochs, MaxBatches: s.MaxBatches, Seed: s.Seed,
		Model: s.Model, Topology: s.Topology, Backend: s.Backend, Faults: s.Faults, CkptInterval: s.CkptInterval,
	})
}

func (s spec) String() string {
	strategy := "quiver-" + s.quiver
	if s.quiver == "" {
		strategy = "replicated"
		if s.Algorithm == pipeline.GraphPartitioned {
			strategy = fmt.Sprintf("partitioned(aware=%v)", s.SparsityAware)
		}
		strategy += fmt.Sprintf(" sampler=%s c=%d k=%d overlap=%v", s.Sampler, s.C, s.K, s.Overlap)
	}
	return fmt.Sprintf("{%s p=%d epochs=%d maxbatches=%d seed=%d ckpt=%d allreduce=%v alltoall=%v topology=%v backend=%v faults=%v}",
		strategy, s.P, s.Epochs, s.MaxBatches, s.Seed, s.CkptInterval,
		s.Model.Collectives.AllReduce, s.Model.Collectives.AllToAll, s.Topology, s.Backend, s.Faults)
}

var (
	backends         = []cluster.Backend{cluster.GoroutineBackend, cluster.DESBackend}
	ringPairwise     = cluster.Collectives{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise}
	collectiveTables = []cluster.Collectives{{}, ringPairwise, {AllReduce: cluster.Hierarchical}}
)

// draw returns the i-th spec. Backends alternate with i, so a row sees
// both equally often.
func draw(i int) spec {
	rng := rand.New(rand.NewSource(20240817 + int64(i)))
	ps := []int{2, 4, 8}
	s := spec{Config: pipeline.Config{
		P:            ps[rng.Intn(len(ps))],
		Epochs:       1 + rng.Intn(3),
		MaxBatches:   1 + rng.Intn(3),
		Seed:         rng.Int63n(1 << 20),
		CkptInterval: rng.Intn(3), // 0: a failure restarts from scratch
		Model:        cluster.Perlmutter(),
		Backend:      backends[i%2],
	}}
	s.Model.Collectives = collectiveTables[rng.Intn(len(collectiveTables))]
	if rng.Intn(4) == 0 {
		s.Topology = cluster.OversubscribedTopology(4)
	}
	switch rng.Intn(5) {
	case 0:
		s.quiver = "gpu"
		return s
	case 1:
		s.quiver = "uva"
		return s
	case 2, 3: // the 1.5D grid needs c² | p
		s.Algorithm, s.SparsityAware = pipeline.GraphPartitioned, rng.Intn(2) == 0
		s.P, s.C = 4*(1+rng.Intn(2)), 2
	default: // replicated: c is any divisor of p
		var divs []int
		for c := 1; c <= s.P; c++ {
			if s.P%c == 0 {
				divs = append(divs, c)
			}
		}
		s.C = divs[rng.Intn(len(divs))]
	}
	s.Sampler = core.Samplers[rng.Intn(len(core.Samplers))].Key
	s.K = rng.Intn(5) // 0 = KAll
	s.Overlap = rng.Intn(2) == 0
	return s
}

// coldSpecs is how many specs TestMain runs before any other run in the
// process, while every free list is still empty: the after-failure
// row's references.
const coldSpecs = 24

var coldRefs []*pipeline.Result

func TestMain(m *testing.M) {
	for i := 0; i < coldSpecs; i++ {
		res, err := draw(i).run()
		if err != nil {
			fmt.Fprintln(os.Stderr, draw(i), err)
			os.Exit(1)
		}
		coldRefs = append(coldRefs, res)
	}
	os.Exit(m.Run())
}

// identical is the full Result surface: per-epoch stats, trained
// parameters, effective bulk and the complete simulated-time cluster
// accounting. Recovery stats are diagnostics and stay out.
func identical(a, b *pipeline.Result) error {
	switch {
	case !reflect.DeepEqual(a.Epochs, b.Epochs):
		return fmt.Errorf("epoch stats differ\n%+v\n%+v", a.Epochs, b.Epochs)
	case !reflect.DeepEqual(a.Params, b.Params):
		return errors.New("trained parameters differ")
	case a.EffectiveK != b.EffectiveK:
		return fmt.Errorf("EffectiveK %d vs %d", a.EffectiveK, b.EffectiveK)
	case !reflect.DeepEqual(a.Cluster, b.Cluster):
		return fmt.Errorf("cluster accounting differs (SimTime %.17g vs %.17g)", a.Cluster.SimTime, b.Cluster.SimTime)
	}
	return nil
}

// sameTraining is what a change of schedule or machine must keep: the
// trained parameters and every epoch's loss. Simulated time may move.
func sameTraining(a, b *pipeline.Result) error {
	if !reflect.DeepEqual(a.Params, b.Params) {
		return errors.New("trained parameters differ")
	}
	if len(a.Epochs) != len(b.Epochs) {
		return fmt.Errorf("%d vs %d epochs", len(a.Epochs), len(b.Epochs))
	}
	for e := range a.Epochs {
		if a.Epochs[e].Loss != b.Epochs[e].Loss || a.Epochs[e].LossBatches != b.Epochs[e].LossBatches {
			return fmt.Errorf("epoch %d loss %v over %d batches vs %v over %d", e,
				a.Epochs[e].Loss, a.Epochs[e].LossBatches, b.Epochs[e].Loss, b.Epochs[e].LossBatches)
		}
	}
	return nil
}

// exact is the one carve-out, and it is cross-backend only: under a
// contention topology the ledger serves concurrent flows in commit
// order, which the DES backend fixes by event key at any worker count
// and the goroutine backend leaves to the Go scheduler; neither order
// is part of a checkpoint. Rows that hold a twin to identical results
// across backends or a restore therefore need the pure α–β model, or
// the DES backend where the row stays on it; training values hold under
// every topology.
func exact(s spec) bool { return s.Topology == nil }

// des is a spec on the DES backend, whose contended runs are exact too.
func des(s spec) bool { return s.Backend == cluster.DESBackend }

// row is one transformation: for n specs per backend (short in -short
// mode) that it applies to, the twin's result must pass the oracle
// against the spec's reference run. A cold row draws only from the
// specs TestMain ran; a desOnly row only DES specs.
type row struct {
	name     string
	n, short int
	cold     bool
	desOnly  bool
	applies  func(spec) bool
	twin     func(i int, s spec, ref *pipeline.Result) (*pipeline.Result, error)
	oracle   func(a, b *pipeline.Result) error
}

var transformations = []row{
	{name: "backend", n: 500, short: 25, applies: exact, oracle: identical,
		twin: func(_ int, s spec, _ *pipeline.Result) (*pipeline.Result, error) {
			if s.Backend == backends[0] {
				s.Backend = backends[1]
			} else {
				s.Backend = backends[0]
			}
			return s.run()
		}},
	// Run memory is recycled through the process's free lists: whatever
	// an earlier run left there, a run computes what a fresh one does.
	{name: "repeat", n: 12, short: 12, oracle: identical,
		applies: func(s spec) bool { return exact(s) || des(s) },
		twin:    func(_ int, s spec, _ *pipeline.Result) (*pipeline.Result, error) { return s.run() }},
	// The DES backend runs up to GOMAXPROCS segments at once and commits
	// in event-key order, so the worker count never changes a result,
	// contended ones included: W = 1 and W = 4 both equal the reference.
	{name: "workers", n: 40, short: 8, desOnly: true, applies: des, oracle: identical,
		twin: func(_ int, s spec, ref *pipeline.Result) (*pipeline.Result, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			serial, err := s.run()
			if err == nil {
				err = identical(ref, serial)
			}
			if err != nil {
				return nil, fmt.Errorf("W=1: %w", err)
			}
			runtime.GOMAXPROCS(4)
			return s.run()
		}},
	{name: "concurrent", n: 4, short: 4, applies: exact, oracle: identical, twin: runBesideSiblings},
	// Two epochs or more, so that a checkpoint can precede the failure.
	{name: "crash", n: 200, short: 12, oracle: identical, twin: crashAndRestore,
		applies: func(s spec) bool { return exact(s) && s.Epochs >= 2 }},
	// A failed attempt's memory is dropped, and what it did give back is
	// whole: a clean run after a failure equals the cold reference.
	{name: "after-failure", n: 4, short: 4, cold: true, applies: exact, oracle: identical,
		twin: func(_ int, s spec, cold *pipeline.Result) (*pipeline.Result, error) {
			failing := s
			failing.Faults = resilience.FailAt(s.P-1, cold.Cluster.SimTime/2)
			failed, err := failing.run()
			if err != nil {
				return nil, err
			}
			if rec := failed.Recovery; rec == nil || rec.Attempts != 2 {
				return nil, fmt.Errorf("recovery = %+v, want a failed attempt and a restart", rec)
			}
			return s.run()
		}},
	// The overlapped schedule moves when work is charged, never what is
	// computed; Quiver has no overlapped schedule.
	{name: "overlap", n: 8, short: 8, oracle: sameTraining,
		applies: func(s spec) bool { return s.quiver == "" },
		twin: func(_ int, s spec, _ *pipeline.Result) (*pipeline.Result, error) {
			s.Overlap = !s.Overlap
			return s.run()
		}},
	{name: "collectives", n: 4, short: 4, oracle: sameTraining,
		applies: func(s spec) bool { return s.Model.Collectives == cluster.Collectives{} },
		twin: func(_ int, s spec, _ *pipeline.Result) (*pipeline.Result, error) {
			s.Model.Collectives = ringPairwise
			return s.run()
		}},
	// A spec on the pure α–β model, moved onto an oversubscribed fabric.
	{name: "topology", n: 4, short: 4, applies: exact, oracle: sameTraining,
		twin: func(_ int, s spec, _ *pipeline.Result) (*pipeline.Result, error) {
			s.Topology = cluster.OversubscribedTopology(4)
			return s.run()
		}},
}

// runBesideSiblings runs spec i at the same time as the three specs
// drawn after it, each taking and giving back run memory concurrently.
func runBesideSiblings(i int, _ spec, _ *pipeline.Result) (*pipeline.Result, error) {
	res := make([]*pipeline.Result, 4)
	errs := make([]error, len(res))
	var wg sync.WaitGroup
	for j := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[j], errs[j] = draw(i + j).run()
		}()
	}
	wg.Wait()
	return res[0], errors.Join(errs...)
}

// crashAndRestore fails one or two ranks in [5 %, 75 %] of the clean
// run's simulated span (two on every seventh spec, to chain restarts).
// Every failure must fire, and the run must recover from its latest
// checkpoint, or from scratch when it keeps none.
func crashAndRestore(i int, s spec, clean *pipeline.Result) (*pipeline.Result, error) {
	if clean.Recovery != nil && clean.Recovery.Attempts != 1 {
		return nil, fmt.Errorf("unfailed run took %d attempts", clean.Recovery.Attempts)
	}
	fails := 1
	if i%7 == 0 {
		fails = 2
	}
	span := clean.Cluster.SimTime
	s.Faults = RandomPlan(int64(i), s.P, fails, span*0.05, span*0.75)
	failed, err := s.run()
	if err != nil {
		return nil, err
	}
	rec := failed.Recovery
	switch {
	case rec == nil || rec.Attempts < 2 || rec.Attempts > fails+1:
		return nil, fmt.Errorf("%v: recovery = %+v, want 2 to %d attempts", s.Faults, rec, fails+1)
	case len(rec.Failures) != rec.Attempts-1 || len(rec.RestartEpochs) != rec.Attempts-1:
		return nil, fmt.Errorf("%v: recovery stats inconsistent: %+v", s.Faults, rec)
	case !(rec.WastedSim > 0):
		return nil, fmt.Errorf("%v: WastedSim = %v, want > 0", s.Faults, rec.WastedSim)
	}
	if s.CkptInterval == 0 && slices.ContainsFunc(rec.RestartEpochs, func(e int) bool { return e != 0 }) {
		return nil, fmt.Errorf("%v: restarted from epochs %v with no checkpoints", s.Faults, rec.RestartEpochs)
	}
	return failed, nil
}

// TestDifferential walks the specs once: a spec's reference run serves
// every row still short of specs on its backend, and is dropped after.
// A row stops at its first failure; the others go on.
func TestDifferential(t *testing.T) {
	left := make([]map[cluster.Backend]int, len(transformations)) // specs each row still needs
	for r, row := range transformations {
		n := row.n
		if testing.Short() {
			n = row.short
		}
		left[r] = map[cluster.Backend]int{backends[0]: n, backends[1]: n}
		if row.desOnly {
			left[r][cluster.GoroutineBackend] = 0
		}
	}
	open := func() bool {
		for _, l := range left {
			if l[backends[0]]+l[backends[1]] > 0 {
				return true
			}
		}
		return false
	}
	for i := 0; open(); i++ {
		s := draw(i)
		var ref *pipeline.Result
		if i < coldSpecs {
			ref = coldRefs[i]
		}
		for r, row := range transformations {
			if left[r][s.Backend] == 0 || !row.applies(s) {
				continue
			}
			if row.cold && i >= coldSpecs {
				t.Errorf("%s: too few of the %d cold specs apply", row.name, coldSpecs)
				clear(left[r])
				continue
			}
			var err error
			if ref == nil {
				if ref, err = s.run(); err != nil {
					t.Fatalf("spec %d %v: %v", i, s, err)
				}
			}
			twin, err := row.twin(i, s, ref)
			if err == nil {
				err = row.oracle(ref, twin)
			}
			if err != nil {
				t.Errorf("%s: spec %d %v: %v", row.name, i, s, err)
				clear(left[r])
				continue
			}
			left[r][s.Backend]--
		}
	}
}

// RandomPlan draws k failures deterministically from seed: ranks
// uniform over [0, p), fail times uniform over [minAt, maxAt). Multiple
// failures may land on one rank (the earliest fires; after a restart
// retires it, a later one can fire on the next attempt).
func RandomPlan(seed int64, p, k int, minAt, maxAt float64) *cluster.FaultPlan {
	if k <= 0 || p <= 0 || !(maxAt > minAt) || !(minAt >= 0) {
		panic(fmt.Sprintf("bad RandomPlan args p=%d k=%d window=[%v,%v)", p, k, minAt, maxAt))
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
