package pipeline_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

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
// grid, bulk size, schedule, checkpoint interval, collective table
// and topology. Each row of the transformation table runs a
// spec's twin and holds it, by one of two oracles, to the spec's own run.

// differentialData is large enough to exercise every phase and small
// enough that a spec runs in milliseconds.
var differentialData = datasets.SBM(datasets.SBMConfig{
	N: 128, Classes: 4, Features: 4,
	IntraDeg: 6, InterDeg: 2, Noise: 0.5,
	BatchSize: 16, Fanouts: []int{3, 2}, LayerWidth: 8, Seed: 11,
})

// spec is one generated run of pipeline.Run.
type spec struct{ pipeline.Config }

func (s spec) run() (*pipeline.Result, error) { return pipeline.Run(differentialData, s.Config) }

func (s spec) String() string {
	strategy := "quiver-gpu"
	switch s.Algorithm {
	case pipeline.GraphReplicated:
		strategy = "replicated"
	case pipeline.GraphPartitioned:
		strategy = fmt.Sprintf("partitioned(aware=%v)", s.SparsityAware)
	case pipeline.QuiverUVA:
		strategy = "quiver-uva"
	}
	return fmt.Sprintf("{%s sampler=%s c=%d k=%d overlap=%v p=%d epochs=%d maxbatches=%d seed=%d ckpt=%d allreduce=%v alltoall=%v topology=%v faults=%v}",
		strategy, s.Sampler, s.C, s.K, s.Overlap, s.P, s.Epochs, s.MaxBatches, s.Seed, s.CkptInterval,
		s.Model.Collectives.AllReduce, s.Model.Collectives.AllToAll, s.Topology, s.Faults)
}

var (
	ringPairwise     = cluster.Collectives{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise}
	collectiveTables = []cluster.Collectives{{}, ringPairwise, {AllReduce: cluster.Hierarchical}}
)

// draw returns the i-th spec.
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
	}}
	s.Model.Collectives = collectiveTables[rng.Intn(len(collectiveTables))]
	if rng.Intn(4) == 0 {
		s.Topology = cluster.OversubscribedTopology(4)
	}
	switch rng.Intn(5) {
	case 0:
		s.Algorithm = pipeline.Quiver
		return s
	case 1:
		s.Algorithm = pipeline.QuiverUVA
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

// exact is the one carve-out: under a contention topology the ledger
// serves concurrent flows in commit order, and its history is not part
// of a checkpoint. Rows that hold a restore to identical results
// therefore need the pure α–β model; training values hold under every
// topology.
func exact(s spec) bool { return s.Topology == nil }

// row is one transformation: for n specs (short in -short mode) that it
// applies to (every spec when applies is nil), the twin's result must
// pass the oracle against the spec's reference run. A cold row draws
// only from the specs TestMain ran.
type row struct {
	name     string
	n, short int
	cold     bool
	applies  func(spec) bool
	twin     func(i int, s spec, ref *pipeline.Result) (*pipeline.Result, error)
	oracle   func(a, b *pipeline.Result) error
}

var transformations = []row{
	// Run memory is recycled through the process's free lists: whatever
	// an earlier run left there, a run computes what a fresh one does.
	{name: "repeat", n: 12, short: 12, oracle: identical,
		twin: func(_ int, s spec, _ *pipeline.Result) (*pipeline.Result, error) { return s.run() }},
	// The scheduler runs up to GOMAXPROCS segments at once and commits
	// in event-key order, so the worker count never changes a result,
	// contended ones included: W = 1 and W = 4 both equal the reference.
	{name: "workers", n: 40, short: 8, oracle: identical,
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
	{name: "concurrent", n: 4, short: 4, oracle: identical, twin: runBesideSiblings},
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
	// Every sample a run draws is the serial sampler's (checkSamples).
	// With it the package's tests take ~4 s on two cores; keep them
	// under 10 s.
	{name: "samples", n: 64, short: 16, oracle: identical, twin: checkSamples},
	// The overlapped schedule moves when work is charged, never what is
	// computed.
	{name: "overlap", n: 8, short: 8, oracle: sameTraining,
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

// A sample is one bulk sample a rank drew, as the sample hook saw it.
type sample struct {
	rank, round int
	chunk       [][]int
	sizes       []int
	epochSeed   int64
	bulk        *core.BulkSample
}

// sampled runs fn with the sample hook collecting every draw, and
// returns fn's result and the draws. Ranks draw on their own timelines,
// side by side, so the hook locks.
func sampled(fn func() (*pipeline.Result, error)) (*pipeline.Result, []sample, error) {
	var mu sync.Mutex
	var got []sample
	pipeline.SetSampleHook(func(rank, round int, chunk [][]int, sizes []int, epochSeed int64, bulk *core.BulkSample) {
		mu.Lock()
		got = append(got, sample{rank, round, chunk, sizes, epochSeed, bulk})
		mu.Unlock()
	})
	defer pipeline.SetSampleHook(nil)
	res, err := fn()
	return res, got, err
}

// checkSamples is the sample oracle: every bulk sample the spec's run
// draws, on every rank in every round, must equal the serial sampler's
// draw over the same chunk — core.SampleBulk at the epoch seed for the
// bulk strategies, and Quiver's per-minibatch draw, core.SampleBulk of
// the one-batch chunk at the epoch seed plus the round. It recomputes
// each draw independently of the run, so a defect every run shares (a
// stale, mis-seeded or mis-shared draw) fails here although it passes
// every run-against-run row. Specs that can restore a checkpoint also
// run with crashAndRestore's failures: the failed attempts' draws and
// the restored run's are held to the same oracle. The run itself must
// be identical to the reference: the hook only reads.
func checkSamples(i int, s spec, ref *pipeline.Result) (*pipeline.Result, error) {
	res, draws, err := sampled(s.run)
	if err != nil {
		return nil, err
	}
	if err := serialOracle(s, draws); err != nil {
		return nil, err
	}
	noteCoverage(s)
	if exact(s) && s.Epochs >= 2 {
		_, draws, err := sampled(func() (*pipeline.Result, error) { return crashAndRestore(i, s, ref) })
		if err == nil {
			err = serialOracle(s, draws)
		}
		if err != nil {
			return nil, fmt.Errorf("crash and restore: %w", err)
		}
		sampleCoverage["crash"] = true
	}
	return res, nil
}

// serialOracle recomputes every draw with the serial sampler.
func serialOracle(s spec, draws []sample) error {
	if len(draws) == 0 {
		return errors.New("the run drew no sample")
	}
	key := s.Sampler
	if key == "" {
		key = core.Samplers[0].Key
	}
	entry, err := core.SamplerByName(key)
	if err != nil {
		return err
	}
	sampler := entry.New(differentialData.Graph)
	quiver := s.Algorithm == pipeline.Quiver || s.Algorithm == pipeline.QuiverUVA
	for _, d := range draws {
		if len(d.chunk) == 0 {
			if err := holdsNoVertex(d.bulk); err != nil {
				return fmt.Errorf("rank %d round %d, empty chunk: %w", d.rank, d.round, err)
			}
			continue
		}
		seed := d.epochSeed
		if quiver {
			seed += int64(d.round)
		}
		want := core.SampleBulk(sampler, differentialData.Graph.Adj, d.chunk, d.sizes, seed)
		if err := sameSample(d.bulk, want); err != nil {
			return fmt.Errorf("rank %d round %d (epoch seed %d, %d batches): %w", d.rank, d.round, d.epochSeed, len(d.chunk), err)
		}
	}
	return nil
}

// holdsNoVertex checks the sample of an empty chunk: none at all, or
// layers over empty frontiers (a partitioned rank joins its row's
// collectives without a batch).
func holdsNoVertex(b *core.BulkSample) error {
	if b == nil {
		return nil
	}
	for l, ls := range b.Layers {
		if ls.Cols.Len() != 0 || ls.Adj.NNZ() != 0 {
			return fmt.Errorf("layer %d holds %d vertices and %d edges", l, ls.Cols.Len(), ls.Adj.NNZ())
		}
	}
	return nil
}

// sameSample compares two bulk samples bit for bit: batches, and per
// layer the adjacency and both frontiers.
func sameSample(got, want *core.BulkSample) error {
	switch {
	case got == nil:
		return errors.New("no sample")
	case !slices.EqualFunc(got.Batches, want.Batches, slices.Equal[[]int]):
		return errors.New("batches differ")
	case len(got.Layers) != len(want.Layers):
		return fmt.Errorf("%d layers, want %d", len(got.Layers), len(want.Layers))
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for l, g := range got.Layers {
		w := want.Layers[l]
		switch {
		case g.Adj.Rows != w.Adj.Rows || g.Adj.Cols != w.Adj.Cols ||
			!slices.Equal(g.Adj.RowPtr, w.Adj.RowPtr) || !slices.Equal(g.Adj.ColIdx, w.Adj.ColIdx) ||
			!slices.EqualFunc(g.Adj.Val, w.Adj.Val, sameBits):
			return fmt.Errorf("layer %d: adjacency differs", l)
		case !slices.Equal(g.Rows.Vertices, w.Rows.Vertices) || !slices.Equal(g.Rows.BatchPtr, w.Rows.BatchPtr):
			return fmt.Errorf("layer %d: row frontier differs", l)
		case !slices.Equal(g.Cols.Vertices, w.Cols.Vertices) || !slices.Equal(g.Cols.BatchPtr, w.Cols.BatchPtr):
			return fmt.Errorf("layer %d: sampled frontier differs", l)
		}
	}
	return nil
}

// sampleKinds are the kinds of run the sample oracle must have seen
// once its row has checked every spec it asks for: every strategy, the
// partitioned one with every sampler under both fetch schemes, and the
// schedules, restarts and fabrics that could change what a run draws.
func sampleKinds() []string {
	kinds := []string{"replicated", "quiver-gpu", "quiver-uva", "overlap", "multi-epoch", "crash", "contended"}
	for _, e := range core.Samplers {
		for _, aware := range []bool{true, false} {
			kinds = append(kinds, fmt.Sprintf("partitioned(aware=%v) %s", aware, e.Key))
		}
	}
	return kinds
}

// sampleCoverage records the kinds checkSamples has checked.
var sampleCoverage = map[string]bool{}

func noteCoverage(s spec) {
	switch s.Algorithm {
	case pipeline.GraphReplicated:
		sampleCoverage["replicated"] = true
	case pipeline.GraphPartitioned:
		sampleCoverage[fmt.Sprintf("partitioned(aware=%v) %s", s.SparsityAware, s.Sampler)] = true
	case pipeline.Quiver:
		sampleCoverage["quiver-gpu"] = true
	case pipeline.QuiverUVA:
		sampleCoverage["quiver-uva"] = true
	}
	sampleCoverage["overlap"] = sampleCoverage["overlap"] || s.Overlap
	sampleCoverage["multi-epoch"] = sampleCoverage["multi-epoch"] || s.Epochs > 1
	sampleCoverage["contended"] = sampleCoverage["contended"] || s.Topology != nil
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
// every row still short of specs, and is dropped after. A row stops at
// its first failure; the others go on.
func TestDifferential(t *testing.T) {
	left := make([]int, len(transformations)) // specs each row still needs
	for r, row := range transformations {
		left[r] = row.n
		if testing.Short() {
			left[r] = row.short
		}
	}
	for i := 0; slices.ContainsFunc(left, func(n int) bool { return n > 0 }); i++ {
		s := draw(i)
		var ref *pipeline.Result
		if i < coldSpecs {
			ref = coldRefs[i]
		}
		for r, row := range transformations {
			if left[r] == 0 || row.applies != nil && !row.applies(s) {
				continue
			}
			if row.cold && i >= coldSpecs {
				t.Errorf("%s: too few of the %d cold specs apply", row.name, coldSpecs)
				left[r] = 0
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
				left[r] = 0
				continue
			}
			left[r]--
		}
	}
	// A failing row stops early, so coverage means something only
	// after a clean walk.
	if !testing.Short() && !t.Failed() {
		for _, kind := range sampleKinds() {
			if !sampleCoverage[kind] {
				t.Errorf("samples: no %s spec among those checked", kind)
			}
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
