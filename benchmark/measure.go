package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/pipeline"
)

const (
	warmups  = 2 // untimed iterations before the first timed one
	minIters = 7 // timed iterations a run never goes below
)

// ops counts what the harness attempted and what failed. An op is one
// warm-up or timed iteration, or one traced call into a layer; it fails
// on a returned error, a recovered panic or a failed correctness check.
type ops struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few messages
}

// do runs fn as one op.
func (o *ops) do(name string, fn func() error) (ok bool) {
	o.Attempted++
	defer func() {
		if p := recover(); p != nil {
			o.fail(fmt.Errorf("%s: panic: %v", name, p))
			ok = false
		}
	}()
	if err := fn(); err != nil {
		o.fail(fmt.Errorf("%s: %w", name, err))
		return false
	}
	return true
}

func (o *ops) fail(err error) {
	o.Failed++
	if len(o.Failures) < 8 {
		o.Failures = append(o.Failures, err.Error())
	}
}

// outcome is what a run of a workload must reproduce bit for bit on
// every iteration: simulated makespan, last-epoch loss and the trained
// parameters.
type outcome struct {
	set     bool
	simTime float64
	loss    float64
	params  uint64
}

func outcomeOf(res *pipeline.Result) outcome {
	return outcome{set: true, simTime: res.Cluster.SimTime, loss: res.LastEpoch().Loss, params: hashParams(res.Params)}
}

// hashParams is the FNV-1a hash of the parameters' bit patterns.
func hashParams(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkResult is the per-iteration correctness check: a finite loss
// aggregated over exactly the expected minibatches in every epoch, and
// the same outcome as the first iteration (an unset first records it).
func checkResult(res *pipeline.Result, wantBatches int, first *outcome) error {
	for e, ep := range res.Epochs {
		if math.IsNaN(ep.Loss) || math.IsInf(ep.Loss, 0) {
			return fmt.Errorf("epoch %d: loss %v is not finite", e, ep.Loss)
		}
		if ep.LossBatches != wantBatches {
			return fmt.Errorf("epoch %d: loss aggregated %d batches, want %d", e, ep.LossBatches, wantBatches)
		}
	}
	got := outcomeOf(res)
	if !first.set {
		*first = got
		return nil
	}
	if got != *first {
		return fmt.Errorf("iteration not reproducible: (sim %v, loss %v, params %x) vs first (sim %v, loss %v, params %x)",
			got.simTime, got.loss, got.params, first.simTime, first.loss, first.params)
	}
	return nil
}

// measured is the result of one untraced run of a workload.
type measured struct {
	Ops        ops                `json:"ops"`
	Metrics    map[string]float64 `json:"metrics"`
	EpochWalls []float64          `json:"epoch_wall_samples_s"` // per timed iteration, per epoch
	// SetupSamples are the set-up times behind setup_s: this process's
	// own first, then the probes'.
	SetupSamples []float64 `json:"setup_samples_s"`
	Iterations   int       `json:"iterations"`
}

// setUp does everything a run pays before its first timed iteration:
// dataset construction, input generation and the warm-up iterations
// (heap growth, dataset cache, lazy set-up inside the layers). It
// returns nil when the workload cannot be set up.
func setUp(s spec, seed int64, o *ops) (run func() (*pipeline.Result, error), wantBatches int, first *outcome) {
	var d *datasets.Dataset
	if !o.do("load dataset", func() (err error) { d, err = s.load(seed); return err }) {
		return nil, 0, nil
	}
	cfg := s.config(seed)
	wantBatches = len(s.batches(d))
	first = &outcome{}
	run = func() (*pipeline.Result, error) { return s.exec(d, cfg) }
	for i := 0; i < warmups; i++ {
		o.do("warm-up", func() error {
			res, err := run()
			if err != nil {
				return err
			}
			return checkResult(res, wantBatches, first)
		})
	}
	return run, wantBatches, first
}

// measureSetup is a set-up-only run: it reports how long set-up took
// since start (the parent's clock just before it started this process).
func measureSetup(s spec, seed int64, start time.Time) measured {
	var m measured
	setUp(s, seed, &m.Ops)
	m.Metrics = map[string]float64{"setup_s": now().Sub(start).Seconds()}
	return m
}

// measure is the untraced run: set-up, then timed iterations for at
// least seconds and at least minIters, one call at a time (closed loop,
// one client). A collection is forced before each iteration, outside
// the timed region, so an iteration pays for its own garbage and not a
// neighbour's.
//
// probe, when not nil, sets the workload up once more in a fresh
// process and returns its result. The setupRuns-1 probes run between
// equal shares of the timed iterations rather than before them: the
// sandbox's speed drifts over tens of seconds, and timed iterations
// spread over the whole run sample more of that drift than one block.
func measure(s spec, seed int64, seconds float64, start time.Time, probe func() (measured, error)) measured {
	m := measured{Metrics: map[string]float64{}}
	run, wantBatches, first := setUp(s, seed, &m.Ops)
	if run == nil {
		return m
	}
	m.Metrics["setup_s"] = now().Sub(start).Seconds()
	m.SetupSamples = []float64{m.Metrics["setup_s"]}

	epochs := float64(s.epochs)
	var walls, allocBytes, allocs []float64
	timed := 0.0 // seconds spent in timed iterations and their collections
	for len(walls) < minIters || timed < seconds {
		if probe != nil && len(m.SetupSamples) < setupRuns && timed >= seconds*float64(len(m.SetupSamples))/setupRuns {
			var p measured
			if m.Ops.do("set-up run", func() (err error) { p, err = probe(); return err }) {
				m.SetupSamples = append(m.SetupSamples, p.Metrics["setup_s"])
			}
			m.Ops.add(p.Ops)
		}
		t0 := now()
		runtime.GC()
		var m0, m1 runtime.MemStats
		var wall float64
		ok := m.Ops.do("iteration", func() error {
			runtime.ReadMemStats(&m0)
			t := now()
			res, err := run()
			wall = now().Sub(t).Seconds()
			runtime.ReadMemStats(&m1)
			if err != nil {
				return err
			}
			return checkResult(res, wantBatches, first)
		})
		if !ok {
			break
		}
		timed += now().Sub(t0).Seconds()
		walls = append(walls, wall)
		allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	m.Metrics["setup_s"] = median(m.SetupSamples)
	m.Iterations = len(walls)
	if len(walls) == 0 {
		return m
	}
	for _, w := range walls {
		m.EpochWalls = append(m.EpochWalls, w/epochs)
	}
	m.Metrics["epoch_wall_s"] = median(m.EpochWalls)
	m.Metrics["host_batches_per_s"] = float64(len(walls)*s.epochs*wantBatches) / sum(walls)
	m.Metrics["sim_epoch_s"] = first.simTime / epochs
	m.Metrics["train_loss"] = first.loss
	// Allocation counters take the minimum: runtime background
	// allocation only ever adds to a near-deterministic count.
	m.Metrics["alloc_bytes_per_epoch"] = minOf(allocBytes) / epochs
	m.Metrics["allocs_per_epoch"] = minOf(allocs) / epochs
	m.Metrics["peak_rss_bytes"] = float64(peakRSS())
	return m
}

// peakRSS reads the process's resident-set high-water mark (VmHWM) from
// /proc; 0 where /proc is unavailable.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}
