package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"

	"repro/internal/cluster"
	"repro/internal/cluster/sim"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/distsample"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/sparse"
)

// The traced run. Spans are recorded here, in the harness, around calls
// into each layer's public functions — the program itself carries no
// instrumentation. One full run of the workload gives the process-level
// numbers; the walks then call each layer on the workload's own inputs,
// one epoch's worth, with nothing else running, which is what makes a
// layer's seconds attributable. The end-to-end metrics never include
// any of this.

const (
	tracePairs   = 3      // untraced/traced iteration pairs behind trace.overhead_ratio
	handoffs     = 100000 // Park/Ready hand-offs sim.handoff times
	hiddenWidth  = 64     // pipeline.Run's and RunQuiver's default hidden width
	learningRate = 0.01   // and their default learning rate
)

// tracedRun is the result of the traced run of a workload.
type tracedRun struct {
	Ops     ops                `json:"ops"`
	Metrics map[string]float64 `json:"metrics"`
}

type walker struct {
	ops
	tr      *tracer
	s       spec
	cfg     pipeline.Config
	d       *datasets.Dataset
	batches [][]int
	m       map[string]float64
}

// call runs fn as one op inside a span named name.
func (w *walker) call(name string, fn func() error) bool {
	id := w.tr.begin(name)
	ok := w.do(name, fn)
	w.tr.end(id)
	return ok
}

// trace runs the traced run of s and writes the spans to traceOut
// (skipped when empty).
func trace(s spec, seed int64, traceOut string) tracedRun {
	w := &walker{tr: newTracer(), s: s, cfg: s.config(seed), m: map[string]float64{}}
	root := w.tr.begin("traced/" + s.name)
	w.walk(seed)
	w.tr.end(root)
	if traceOut != "" {
		w.do("write trace", func() error { return w.tr.writeChrome(traceOut) })
	}
	return tracedRun{Ops: w.ops, Metrics: w.m}
}

func (w *walker) walk(seed int64) {
	if !w.call("datasets.build", func() error {
		_, err := datasets.ByName(w.s.dataset, w.s.profile)
		return err
	}) {
		return
	}
	d, err := w.s.load(seed)
	if err != nil {
		w.fail(err)
		return
	}
	w.d, w.batches = d, w.s.batches(d)

	res, ok := w.fullRuns()
	if !ok {
		return
	}
	verts, kc, ok := w.walkKernels()
	if !ok {
		return
	}
	snaps, ok := w.walkSampling()
	if !ok {
		return
	}
	if !w.walkFetch(verts) || !w.walkCollectives(verts, kc.params) || !w.simHandoff() ||
		!w.checkpoint(res, snaps) || !w.engineTwin(res) || !w.resilienceTwin() {
		return
	}
	w.derive(res, kc)
}

// gcCounters reads the runtime's cumulative GC cost.
type gcCounters struct {
	cpu    float64 // estimated GC CPU seconds (runtime/metrics)
	pause  float64 // stop-the-world pause seconds
	cycles float64
	heap   float64 // HeapSys now
}

func readGC() gcCounters {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := gcCounters{pause: float64(ms.PauseTotalNs) * 1e-9, cycles: float64(ms.NumGC), heap: float64(ms.HeapSys)}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		g.cpu = sample[0].Value.Float64()
	}
	return g
}

// fullRuns warms up, then alternates untraced and traced full runs
// of the workload. The traced ones are the `pipeline.run` spans; their
// wall against the untraced ones is the tracing overhead, which is ~1
// while spans live only outside the program.
func (w *walker) fullRuns() (*pipeline.Result, bool) {
	want := len(w.batches)
	first := &outcome{}
	var res *pipeline.Result
	run := func() error {
		r, err := w.s.exec(w.d, w.cfg)
		if err != nil {
			return err
		}
		res = r
		return nil
	}
	for i := 0; i < warmups; i++ {
		if !w.do("warm-up", run) {
			return nil, false
		}
	}
	epochs := float64(w.s.epochs)
	var untraced, traced, cpu, gcCPU, gcPause, gcCycles []float64
	runUntraced := func() bool {
		runtime.GC()
		t := now()
		ok := w.do("untraced iteration", run)
		untraced = append(untraced, now().Sub(t).Seconds())
		return ok
	}
	runTraced := func() bool {
		runtime.GC()
		g0 := readGC()
		id := w.tr.begin("pipeline.run")
		ok := w.do("pipeline.run", run)
		w.tr.end(id)
		g1 := readGC()
		sp := w.tr.spans[id]
		traced = append(traced, sp.wall())
		cpu = append(cpu, sp.CPU)
		gcCPU = append(gcCPU, g1.cpu-g0.cpu)
		gcPause = append(gcPause, g1.pause-g0.pause)
		gcCycles = append(gcCycles, g1.cycles-g0.cycles)
		w.m["process.heap_sys_bytes"] = g1.heap
		return ok && w.do("pipeline.run check", func() error { return checkResult(res, want, first) })
	}
	var ratios []float64
	for i := 0; i < tracePairs; i++ {
		// Alternate which goes first, so drift within a pair (heap
		// growth, host load) does not favour one side.
		a, b := runUntraced, runTraced
		if i%2 == 1 {
			a, b = b, a
		}
		if !a() || !b() {
			return nil, false
		}
		ratios = append(ratios, traced[i]/untraced[i])
	}
	// The ratio is taken pair by pair: the two runs of a pair are
	// seconds apart, so the host's slower drift cancels.
	w.m["trace.overhead_ratio"] = median(ratios)
	w.m["process.epoch_cpu_s"] = median(cpu) / epochs
	w.m["process.gc_cpu_s"] = median(gcCPU) / epochs
	w.m["process.gc_pause_s"] = median(gcPause) / epochs
	w.m["process.gc_cycles_per_epoch"] = median(gcCycles) / epochs
	w.m["engine.sequential_twin_wall_s"] = median(traced) / epochs // replaced when the workload overlaps
	w.m["engine.sequential_twin_sim_s"] = res.Cluster.SimTime / epochs

	if !w.s.quiver {
		// The walks below sample each block's whole share in one bulk.
		if !w.do("bulk size check", func() error {
			if res.EffectiveK < want {
				return fmt.Errorf("workload samples in bulks of %d < %d batches; the walk assumes one bulk per block", res.EffectiveK, want)
			}
			return nil
		}) {
			return nil, false
		}
	}
	return res, true
}

// bulkCall is one sampling call the workload makes: the batches sampled
// together and the seed they are sampled under.
type bulkCall struct {
	batches [][]int
	seed    int64
}

// bulkCalls lists the epoch's sampling calls in global batch order: one
// bulk per rank (replicated) or grid row (partitioned), one call per
// minibatch for the Quiver baseline.
func (w *walker) bulkCalls() []bulkCall {
	blocks := w.cfg.P
	if w.cfg.Algorithm == pipeline.GraphPartitioned {
		blocks = w.cfg.P / w.cfg.C
	}
	var calls []bulkCall
	for i := 0; i < blocks; i++ {
		local := distsample.ReplicatedBatches(blocks, i, w.batches)
		if w.s.quiver {
			for round, b := range local {
				calls = append(calls, bulkCall{[][]int{b}, w.cfg.Seed + int64(round)})
			}
		} else if len(local) > 0 {
			calls = append(calls, bulkCall{local, w.cfg.Seed})
		}
	}
	return calls
}

// kernelCounts are the exact work counts the kernel walk tallies.
type kernelCounts struct {
	spgemmFlops, spgemmOutNNZ, rowsSampled int64
	cost                                   core.Cost
	denseFlops                             int64
	params                                 int
}

// walkKernels runs one epoch of the workload's kernels serially, with no
// cluster: per sampling call BuildQ → SpGEMM → Norm → FinishStep per
// layer, then per minibatch ExtractBatch, GatherFeatures, Forward, Loss,
// Backward and the Adam step. It returns every global batch's input
// frontier for the fetch walk.
func (w *walker) walkKernels() (verts [][]int, kc kernelCounts, ok bool) {
	id := w.tr.begin("walk.kernels")
	defer w.tr.end(id)
	d, a := w.d, w.d.Graph.Adj
	n := a.Rows
	model := gnn.NewModel(gnn.Config{In: d.Features.Cols, Hidden: hiddenWidth,
		Classes: d.NumClasses, Layers: len(d.Fanouts), Seed: w.cfg.Seed})
	opt := dense.NewAdam(learningRate)
	kc.params = model.NumParams()
	sg := core.SAGE{}

	for _, bc := range w.bulkCalls() {
		bulk := &core.BulkSample{Batches: bc.batches}
		cur := core.NewFrontier(bc.batches)
		for l, fan := range d.Fanouts {
			var q, p *sparse.CSR
			var flops int64
			if !w.call("core.build_q", func() error { q = sg.BuildQ(cur, n); return nil }) ||
				!w.call("sparse.spgemm", func() error { p, flops = sparse.SpGEMM(q, a); return nil }) {
				return nil, kc, false
			}
			// Norm is timed on a copy: FinishStep normalizes P itself.
			pn := p.Clone()
			var ls *core.LayerSample
			var cost core.Cost
			if !w.call("core.norm", func() error { sg.Norm(pn); return nil }) ||
				!w.call("core.finish_step", func() error {
					ls, cost = sg.FinishStep(p, cur, fan, bc.seed+int64(l)*1e9)
					return nil
				}) {
				return nil, kc, false
			}
			kc.spgemmFlops += flops
			kc.spgemmOutNNZ += int64(p.NNZ())
			kc.rowsSampled += int64(p.Rows)
			bulk.Cost.ProbFlops += flops
			bulk.Cost.Kernels += 2 // Q construction and SpGEMM, as SAGE.Step counts them
			bulk.Cost.Add(cost)
			bulk.Layers = append(bulk.Layers, ls)
			cur = ls.Cols
		}
		if !w.do("BulkSample.Validate", func() error { return bulk.Validate(n) }) {
			return nil, kc, false
		}
		kc.cost.Add(bulk.Cost)

		for i := range bc.batches {
			var bg *core.BatchGraph
			var feats *dense.Matrix
			var act *gnn.Activations
			var fwd, bwd int64
			if !w.call("core.extract_batch", func() error { bg = bulk.ExtractBatch(i); return nil }) ||
				!w.call("gnn.gather_features", func() error {
					feats = gnn.GatherFeatures(d.Features, bg.InputVertices())
					return nil
				}) ||
				!w.call("gnn.forward", func() error { act, fwd = model.Forward(bg, feats); return nil }) ||
				!w.do("finite logits", func() error { return finite(act.Logits.Data) }) {
				return nil, kc, false
			}
			labels := make([]int, len(bg.Seeds))
			for j, v := range bg.Seeds {
				labels[j] = d.Labels[v]
			}
			var dLogits *dense.Matrix
			var grads []float64
			if !w.call("gnn.loss", func() error { _, dLogits = gnn.Loss(act, labels); return nil }) ||
				!w.call("gnn.backward", func() error { grads, bwd = model.Backward(act, dLogits); return nil }) ||
				!w.call("dense.adam_step", func() error { opt.Step(model.Params(), grads); return nil }) {
				return nil, kc, false
			}
			kc.denseFlops += fwd + bwd
			verts = append(verts, bg.InputVertices())
		}
	}
	return verts, kc, true
}

func finite(xs []float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("element %d is %v", i, x)
		}
	}
	return nil
}

// grid builds a cluster and process grid of the workload's shape under
// the given backend (the Quiver baseline partitions features over all p
// ranks: c=1).
func (w *walker) grid(be cluster.Backend) (*cluster.Cluster, *cluster.Grid) {
	m := costModel(w.cfg)
	m.Backend = be
	cl := cluster.New(w.cfg.P, m)
	return cl, cluster.NewGrid(cl, w.cfg.P, w.cfg.C)
}

// walkSampling is a cluster run whose rank body is only the workload's
// sampling call. Each rank leaves its accounting snapshot behind for the
// checkpoint walk.
func (w *walker) walkSampling() ([]cluster.RankSnapshot, bool) {
	cfg, d := w.cfg, w.d
	a := d.Graph.Adj
	cl, grid := w.grid(cfg.Backend)
	var parts []*distsample.Partitioned
	if cfg.Algorithm == pipeline.GraphPartitioned {
		parts = distsample.NewPartitionedSet(grid, a, cfg.SparsityAware)
	}
	snaps := make([]cluster.RankSnapshot, cfg.P)
	var res *cluster.Result
	ok := w.call("walk.sampling", func() (err error) {
		res, err = cl.Run(func(r *cluster.Rank) error {
			r.SetPhase(pipeline.PhaseSampling)
			r.PushPhase(pipeline.PhaseSampling)
			switch {
			case w.s.quiver:
				for round, b := range distsample.ReplicatedBatches(cfg.P, r.ID, w.batches) {
					bulk := core.SampleBulk(core.SAGE{}, a, [][]int{b}, d.Fanouts, cfg.Seed+int64(round))
					r.ChargeSparse(bulk.Cost.Total())
					r.ChargeKernels(bulk.Cost.Kernels)
				}
			case cfg.Algorithm == pipeline.GraphPartitioned:
				distsample.SampleSAGEPartitioned(r, parts[r.ID], distsample.LocalBatches(grid, r.ID, w.batches), d.Fanouts, cfg.Seed)
			default:
				distsample.SampleReplicated(r, core.SAGE{}, a, distsample.ReplicatedBatches(cfg.P, r.ID, w.batches), d.Fanouts, cfg.Seed)
			}
			r.PopPhase()
			snaps[r.ID] = r.Snapshot()
			return nil
		})
		return err
	})
	if !ok {
		return nil, false
	}
	w.m["distsample.sim_sampling_s"] = res.Phase(pipeline.PhaseSampling)
	w.m["distsample.sim_sampling_comm_s"] = res.PhaseComm(pipeline.PhaseSampling)
	sent := int64(0)
	for _, r := range res.Ranks {
		sent += r.BytesSent
	}
	w.m["distsample.comm_bytes"] = float64(sent)
	return snaps, true
}

// trainedBy lists the global batch indices rank trains, in order:
// its contiguous share (replicated), or its grid row's share strided
// over the row's c members (partitioned; rank = row*c + column).
func (w *walker) trainedBy(rank int) []int {
	nb, p, c := len(w.batches), w.cfg.P, w.cfg.C
	lo, hi := graph.BlockRowRange(nb, p, rank)
	first, stride := 0, 1
	if w.cfg.Algorithm == pipeline.GraphPartitioned {
		lo, hi = graph.BlockRowRange(nb, p/c, rank/c)
		first, stride = rank%c, c
	}
	var idx []int
	for b := lo + first; b < hi; b += stride {
		idx = append(idx, b)
	}
	return idx
}

// trainIters is the number of training iterations every rank runs per
// epoch: the largest share, which ranks with fewer batches pad with
// empty work so all join the same collectives.
func (w *walker) trainIters() int {
	iters := 0
	for rank := 0; rank < w.cfg.P; rank++ {
		iters = max(iters, len(w.trainedBy(rank)))
	}
	return iters
}

// walkFetch is a cluster run whose rank body is only the epoch's
// FeatureStore.FetchCached calls, on the frontiers the kernel walk
// sampled.
func (w *walker) walkFetch(verts [][]int) bool {
	cl, grid := w.grid(w.cfg.Backend)
	stores := pipeline.NewFeatureStores(grid, w.d.Features)
	iters := w.trainIters()
	ok := w.call("walk.fetch", func() error {
		_, err := cl.Run(func(r *cluster.Rank) error {
			r.SetPhase(pipeline.PhaseFeatureFetch)
			mine := w.trainedBy(r.ID)
			for i := 0; i < iters; i++ {
				var v []int
				if i < len(mine) {
					v = verts[mine[i]]
				}
				stores[r.ID].FetchCached(r, v, nil)
			}
			return nil
		})
		return err
	})
	rows, unique := 0, 0
	seen := map[int]struct{}{}
	for _, v := range verts {
		rows += len(v)
		clear(seen)
		for _, x := range v {
			seen[x] = struct{}{}
		}
		unique += len(seen)
	}
	w.m["pipeline.fetch_rows"] = float64(rows)
	w.m["pipeline.fetch_unique_ratio"] = float64(unique) / float64(max(rows, 1))
	return ok
}

// walkCollectives replays the epoch's collective sequence with
// workload-sized payloads and no compute, once per backend: two
// all-to-allv rounds per training iteration over the process column (row
// requests, then rows) and one gradient all-reduce over the world. What
// is left is rendezvous, park/wake and cost-model charging.
func (w *walker) walkCollectives(verts [][]int, params int) bool {
	rowsPerFetch := 0
	for _, v := range verts {
		rowsPerFetch += len(v)
	}
	rowsPerFetch /= max(len(verts), 1)
	feats := w.d.Features.Cols
	grads := make([]float64, params) // shared: the collective never writes a member's input
	iters := w.trainIters()

	for _, be := range []cluster.Backend{cluster.GoroutineBackend, cluster.DESBackend} {
		name := be.String()
		id := w.tr.begin("cluster.collectives/" + name)
		var cl *cluster.Cluster
		var grid *cluster.Grid
		build := func() error { cl, grid = w.grid(be); return nil }
		ok := w.call("cluster.new/"+name, build) &&
			w.call("cluster.alltoallv/"+name, func() error {
				_, err := cl.Run(func(r *cluster.Rank) error {
					col := grid.ColComm(r.ID)
					per := rowsPerFetch / col.Size()
					reqs := make([][]int, col.Size())
					rows := make([][]float64, col.Size())
					for j := range reqs {
						reqs[j] = make([]int, per)
						rows[j] = make([]float64, per*feats)
					}
					for i := 0; i < iters; i++ {
						cluster.AllToAllv(col, r, reqs, func(x []int) int { return 8 * len(x) })
						cluster.AllToAllv(col, r, rows, func(x []float64) int { return 8 * len(x) })
					}
					return nil
				})
				return err
			}) &&
			w.call("cluster.new/"+name, build) &&
			w.call("cluster.allreduce/"+name, func() error {
				world := grid.World()
				_, err := cl.Run(func(r *cluster.Rank) error {
					for i := 0; i < iters; i++ {
						cluster.AllReduceSumApply(world, r, grads, func([]float64) {})
					}
					return nil
				})
				return err
			})
		w.tr.end(id)
		if !ok {
			return false
		}
	}
	rankIters := float64(w.cfg.P * iters)
	w.m["cluster.allreduce_calls"] = rankIters
	w.m["cluster.alltoallv_calls"] = 2 * rankIters
	return true
}

// simHandoff times the DES scheduler's hand-off alone: p tasks, each
// readying itself one simulated second ahead and parking, so every
// hand-off goes through the event heap and the resume/yield channels.
func (w *walker) simHandoff() bool {
	p := w.cfg.P
	rounds := max(handoffs/p, 1)
	s := sim.New()
	for rank := 0; rank < p; rank++ {
		t := s.Spawn(rank, func(t *sim.Task) {
			for k := 1; k <= rounds; k++ {
				s.Ready(t, float64(k))
				t.Park()
			}
		})
		s.Ready(t, 0)
	}
	id := w.tr.begin("sim.handoff")
	ok := w.do("sim.handoff", func() error { s.Run(); return nil })
	w.tr.end(id)
	w.m["sim.park_wake_ns"] = w.tr.spans[id].wall() / float64(p*(rounds+1)) * 1e9
	return ok
}

// checkpoint writes and reads back a checkpoint of the run's size: its
// trained parameters, Adam-sized moment vectors and p rank snapshots.
func (w *walker) checkpoint(res *pipeline.Result, snaps []cluster.RankSnapshot) bool {
	ck := &graphio.Checkpoint{
		Epoch: 1, Params: res.Params, OptT: len(w.batches),
		OptM: append([]float64(nil), res.Params...), OptV: append([]float64(nil), res.Params...),
		Ranks: snaps,
	}
	var buf bytes.Buffer
	var got *graphio.Checkpoint
	ok := w.call("graphio.ckpt_write", func() error { return graphio.WriteCheckpoint(&buf, ck) }) &&
		w.call("graphio.ckpt_read", func() (err error) {
			got, err = graphio.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
			return err
		}) &&
		w.do("checkpoint round trip", func() error {
			if hashParams(got.Params) != hashParams(ck.Params) || len(got.Params) != len(ck.Params) || len(got.Ranks) != len(snaps) {
				return fmt.Errorf("checkpoint did not round-trip")
			}
			return nil
		})
	w.m["graphio.ckpt_bytes"] = float64(buf.Len())
	return ok
}

// sameParams reports whether two runs trained bit-identical parameters.
func sameParams(a, b *pipeline.Result) error {
	if len(a.Params) != len(b.Params) || hashParams(a.Params) != hashParams(b.Params) {
		return fmt.Errorf("trained parameters differ")
	}
	return nil
}

// engineTwin runs an overlapped workload's configuration with the
// overlap off: the schedule moves when work is charged, never what is
// computed, so the twin must train the same parameters. A sequential
// workload is its own twin (fullRuns recorded it).
func (w *walker) engineTwin(res *pipeline.Result) bool {
	if !w.cfg.Overlap {
		return true
	}
	seq := w.cfg
	seq.Overlap = false
	var twin *pipeline.Result
	runtime.GC()
	id := w.tr.begin("engine.sequential_twin")
	ok := w.do("engine.sequential_twin", func() (err error) {
		twin, err = w.s.exec(w.d, seq)
		return err
	})
	w.tr.end(id)
	if !ok || !w.do("engine twin params", func() error { return sameParams(res, twin) }) {
		return false
	}
	epochs := float64(w.s.epochs)
	w.m["engine.sequential_twin_wall_s"] = w.tr.spans[id].wall() / epochs
	w.m["engine.sequential_twin_sim_s"] = twin.Cluster.SimTime / epochs
	return true
}

// resilienceTwin trains two epochs with a checkpoint after the first,
// once clean and once with a rank failing 70% of the way through the
// clean run's simulated time; the recovered run must end with the clean
// run's parameters bit for bit.
func (w *walker) resilienceTwin() bool {
	clean := w.cfg
	clean.Epochs, clean.CkptInterval = 2, 1
	run := func(name string, cfg pipeline.Config) (res *pipeline.Result, wall float64, ok bool) {
		runtime.GC()
		id := w.tr.begin(name)
		ok = w.do(name, func() (err error) {
			res, err = w.s.exec(w.d, cfg)
			return err
		})
		w.tr.end(id)
		return res, w.tr.spans[id].wall(), ok
	}
	cres, cleanWall, ok := run("resilience.clean", clean)
	if !ok {
		return false
	}
	faulty := clean
	faulty.Faults = resilience.FailAt(clean.P/2, 0.7*cres.Cluster.SimTime)
	fres, faultyWall, ok := run("resilience.recovery", faulty)
	if !ok || !w.do("recovered params", func() error {
		if fres.Recovery == nil || fres.Recovery.Attempts < 2 {
			return fmt.Errorf("injected failure never fired")
		}
		return sameParams(cres, fres)
	}) {
		return false
	}
	w.m["resilience.recovery_wall_ratio"] = faultyWall / cleanWall
	w.m["resilience.wasted_sim_s"] = fres.Recovery.WastedSim
	w.m["resilience.attempts"] = float64(fres.Recovery.Attempts)
	return true
}

// derive turns span totals and the full run's results into the
// per-layer metrics.
func (w *walker) derive(res *pipeline.Result, kc kernelCounts) {
	m, tt := w.m, w.tr.totals()
	epochs := float64(w.s.epochs)
	backend := w.cfg.Backend.Resolve().String()

	m["datasets.build_s"] = tt.wall["datasets.build"]

	m["sparse.spgemm_s"] = tt.selfWall["sparse.spgemm"]
	m["sparse.spgemm_flops"] = float64(kc.spgemmFlops)
	m["sparse.spgemm_out_nnz"] = float64(kc.spgemmOutNNZ)
	m["sparse.spgemm_mflops_per_s"] = float64(kc.spgemmFlops) / tt.selfWall["sparse.spgemm"] / 1e6

	m["core.build_q_s"] = tt.selfWall["core.build_q"]
	m["core.norm_s"] = tt.selfWall["core.norm"]
	m["core.finish_step_s"] = tt.selfWall["core.finish_step"]
	m["core.extract_batch_s"] = tt.selfWall["core.extract_batch"]
	m["core.prob_flops"] = float64(kc.cost.ProbFlops)
	m["core.sample_ops"] = float64(kc.cost.SampleOps)
	m["core.extract_ops"] = float64(kc.cost.ExtractOps)
	m["core.kernel_launches"] = float64(kc.cost.Kernels)
	m["core.rows_sampled_per_s"] = float64(kc.rowsSampled) / tt.selfWall["core.finish_step"]

	m["distsample.sampling_run_wall_s"] = tt.wall["walk.sampling"]
	m["distsample.sampling_run_cpu_s"] = tt.cpu["walk.sampling"]

	m["gnn.gather_features_s"] = tt.selfWall["gnn.gather_features"]
	m["gnn.forward_s"] = tt.selfWall["gnn.forward"]
	m["gnn.loss_s"] = tt.selfWall["gnn.loss"]
	m["gnn.backward_s"] = tt.selfWall["gnn.backward"]
	m["gnn.dense_flops"] = float64(kc.denseFlops)
	m["gnn.mflops_per_s"] = float64(kc.denseFlops) / (tt.selfWall["gnn.forward"] + tt.selfWall["gnn.backward"]) / 1e6
	m["dense.adam_step_s"] = tt.selfWall["dense.adam_step"]
	m["dense.adam_params"] = float64(kc.params)

	m["pipeline.fetch_run_wall_s"] = tt.wall["walk.fetch"]
	m["pipeline.fetch_run_cpu_s"] = tt.cpu["walk.fetch"]
	last := res.LastEpoch()
	m["pipeline.sim_sampling_s"] = last.Sampling
	m["pipeline.sim_fetch_s"] = last.FeatureFetch
	m["pipeline.sim_prop_s"] = last.Propagation
	m["pipeline.sim_stall_s"] = last.Stall
	m["pipeline.sim_fetch_comm_s"] = last.FetchComm
	m["pipeline.effective_k"] = float64(res.EffectiveK)

	newCalls := float64(max(tt.calls["cluster.new/"+backend], 1))
	m["cluster.new_s"] = tt.wall["cluster.new/"+backend] / newCalls
	m["cluster.allreduce_us_per_rank_call"] = tt.wall["cluster.allreduce/"+backend] / m["cluster.allreduce_calls"] * 1e6
	m["cluster.alltoallv_us_per_rank_call"] = tt.wall["cluster.alltoallv/"+backend] / m["cluster.alltoallv_calls"] * 1e6
	for _, be := range []string{"goroutine", "des"} {
		m["cluster."+be+".collectives_wall_s"] = tt.wall["cluster.alltoallv/"+be] + tt.wall["cluster.allreduce/"+be]
	}
	calls, sent := int64(0), int64(0)
	for _, r := range res.Cluster.Ranks {
		sent += r.BytesSent
		for _, n := range r.OpCount {
			calls += n
		}
	}
	link := res.Cluster.LinkTraffic()
	m["cluster.collective_calls"] = float64(calls) / epochs
	m["cluster.bytes_sent"] = float64(sent) / epochs
	m["cluster.bytes_intra_node"] = float64(link[cluster.IntraNode]) / epochs
	m["cluster.bytes_inter_node"] = float64(link[cluster.InterNode]) / epochs
	m["cluster.bytes_host"] = float64(link[cluster.HostLink]) / epochs
	m["cluster.ledger_peak_spans"] = float64(res.Cluster.LedgerPeakSpans)

	m["graphio.ckpt_write_s"] = tt.wall["graphio.ckpt_write"]
	m["graphio.ckpt_read_s"] = tt.wall["graphio.ckpt_read"]

	// CPU attribution, per epoch. Every walk covers exactly one epoch of
	// its layer's work: sampling and fetch as the cluster runs the
	// workload makes, propagation as the kernel walk's dense calls, and
	// the gradient all-reduce as the compute-free replay. What the full
	// run spends beyond these and the collector is glue, scheduling and
	// whatever the walks cannot see; it is reported, not hidden.
	sampling := tt.cpu["walk.sampling"]
	fetch := tt.cpu["walk.fetch"]
	prop := tt.selfCPU["gnn.forward"] + tt.selfCPU["gnn.loss"] + tt.selfCPU["gnn.backward"] + tt.selfCPU["dense.adam_step"]
	coll := tt.cpu["cluster.allreduce/"+backend]
	attributed := sampling + fetch + prop + coll
	m["pipeline.unattributed_cpu_s"] = m["process.epoch_cpu_s"] - attributed - m["process.gc_cpu_s"]
	if attributed > 0 {
		m["pipeline.cpu_share_sampling"] = sampling / attributed
		m["pipeline.cpu_share_fetch"] = fetch / attributed
		m["pipeline.cpu_share_propagation"] = prop / attributed
		m["pipeline.cpu_share_collectives"] = coll / attributed
	}
}
