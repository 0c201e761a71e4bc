package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// This file is the simulator's own performance-regression suite: a
// pinned workload matrix measured in wall-clock seconds, allocations
// and contention-ledger growth, written to / compared against a
// committed BENCH_*.json baseline (see ROADMAP.md for the naming
// convention). The simulated seconds double as a determinism gate:
// they depend only on the seed, so any drift from the baseline means
// a behavioral change, not a slow machine.

// PerfRow is one pinned workload's measurement.
type PerfRow struct {
	// Name identifies the workload ("epoch-replicated-small-p16", ...).
	Name string `json:"name"`
	// WallSec is the minimum wall-clock seconds over the repetitions —
	// the standard noise-robust statistic (scheduler interference only
	// ever adds time).
	WallSec float64 `json:"wall_sec"`
	// WallMedianSec is the median wall-clock seconds over the same
	// repetitions, reported beside the min so a noisy capture is
	// visible in the baseline itself (a median far above the min means
	// the host was contended). Optional for schema compatibility:
	// baselines captured before the field existed simply omit it, and
	// the gate never compares it.
	WallMedianSec float64 `json:"wall_median_sec,omitempty"`
	// SimSec is the run's simulated makespan — deterministic given the
	// seed, compared exactly against the baseline.
	SimSec float64 `json:"sim_sec"`
	// AllocBytes is heap bytes allocated per run.
	AllocBytes int64 `json:"alloc_bytes"`
	// Allocs is heap allocation count per run.
	Allocs int64 `json:"allocs"`
	// LedgerPeak is the contention ledger's high-water span count (0
	// for ideal-topology workloads).
	LedgerPeak int `json:"ledger_peak"`
}

// PerfBaseline is the schema of a committed BENCH_*.json file.
type PerfBaseline struct {
	// Schema names the format; bump when fields change meaning.
	Schema string `json:"schema"`
	// Note records capture conditions (host class, GOMAXPROCS).
	Note string    `json:"note"`
	Rows []PerfRow `json:"rows"`
}

// PerfSchema is the current baseline schema identifier.
const PerfSchema = "gnn-repro-perf/v1"

// perfCase is one pinned workload of the matrix.
type perfCase struct {
	name string
	prof datasets.Profile
	cfg  pipeline.Config
}

// perfMatrix pins the workloads the suite always measures, spanning
// the charging paths that matter: the replicated and 1.5D partitioned
// epoch at the acceptance configuration (small, p=16), the large-p
// regime the scaling study sweeps (tiny, p=512), and the contention
// ledger under an oversubscribed fabric.
func perfMatrix() []perfCase {
	oversub := cluster.OversubscribedTopology(4)
	des := cluster.DESBackend
	return []perfCase{
		{"epoch-replicated-small-p16", datasets.Small,
			pipeline.Config{P: 16, C: 4, K: pipeline.KAll, Epochs: 1, Seed: 20240101}},
		{"epoch-partitioned-small-p16", datasets.Small,
			pipeline.Config{P: 16, C: 2, K: pipeline.KAll, Epochs: 1, Seed: 20240101,
				Algorithm: pipeline.GraphPartitioned, SparsityAware: true}},
		{"epoch-replicated-tiny-p512", datasets.Tiny,
			pipeline.Config{P: 512, C: 8, K: pipeline.KAll, Epochs: 1, Seed: 20240101}},
		{"epoch-contention-tiny-p128-oversub", datasets.Tiny,
			pipeline.Config{P: 128, C: 8, K: pipeline.KAll, Epochs: 1, Seed: 20240101,
				Topology: oversub}},
		// Discrete-event backend rows: the same simulated workloads run
		// as one event loop instead of p goroutines. Contention-off rows
		// must match their goroutine twins' simulated seconds exactly;
		// the contention row may differ in the last digits — the ledger
		// is first-committed-first-served in arrival order (see
		// contention.go), and each backend has its own deterministic
		// arrival order. The wall-clock columns are what the DES rebase
		// is accountable to, including the p=2048 point no goroutine row
		// covers.
		{"epoch-replicated-tiny-p512-des", datasets.Tiny,
			pipeline.Config{P: 512, C: 8, K: pipeline.KAll, Epochs: 1, Seed: 20240101,
				Backend: des}},
		{"epoch-replicated-tiny-p2048-des", datasets.Tiny,
			pipeline.Config{P: 2048, C: 8, K: pipeline.KAll, Epochs: 1, Seed: 20240101,
				Backend: des}},
		{"epoch-partitioned-small-p16-des", datasets.Small,
			pipeline.Config{P: 16, C: 2, K: pipeline.KAll, Epochs: 1, Seed: 20240101,
				Algorithm: pipeline.GraphPartitioned, SparsityAware: true, Backend: des}},
		// Large-p partitioned row at c=CMax(512)=16 — the replication
		// factor that keeps the 1.5D grid tractable past p=512 (the
		// scaling study's cmax series; fixed c=2 is the regime whose
		// blow-up the cap message documents). Guards the arena hot path
		// under many small per-rank frontiers, not just the p=16 shape.
		{"epoch-partitioned-tiny-p512-des", datasets.Tiny,
			pipeline.Config{P: 512, C: 16, K: pipeline.KAll, Epochs: 1, Seed: 20240101,
				Algorithm: pipeline.GraphPartitioned, SparsityAware: true, Backend: des}},
		{"epoch-contention-tiny-p128-oversub-des", datasets.Tiny,
			pipeline.Config{P: 128, C: 8, K: pipeline.KAll, Epochs: 1, Seed: 20240101,
				Topology: oversub, Backend: des}},
		// Crash-recovery row: the replicated acceptance shape run for two
		// epochs with an epoch-1 checkpoint and a pinned fail-stop at
		// 0.7ms simulated — ~73% of the clean span, inside epoch 2 — so
		// every rep pays the full recovery path (fail-stop unwind, poison
		// sweep, checkpoint decode, resumed attempt). Guards the seam's
		// wall cost; sim-sec pins the recovered timeline's determinism.
		{"epoch-recovery-small-p16", datasets.Small,
			pipeline.Config{P: 16, C: 4, K: pipeline.KAll, Epochs: 2, Seed: 20240101,
				CkptInterval: 1, Faults: resilience.FailAt(8, 0.0007)}},
	}
}

// perfReps is the repetition count per workload, the one every
// BENCH_*.json baseline was captured with; the wall-clock minimum damps
// scheduler noise while keeping the suite CI-cheap.
const perfReps = 5

// Perf measures the pinned workload matrix and prints one row per
// workload. Options contributes only the cost model; the matrix's
// sizes, seeds and topologies are pinned so baselines stay comparable.
func Perf(w io.Writer, o Options) ([]PerfRow, error) {
	o = o.withDefaults()
	fmt.Fprintf(w, "Simulator perf suite (GOMAXPROCS=%d, %d reps, wall min/median)\n", runtime.GOMAXPROCS(0), perfReps)
	fmt.Fprintf(w, "%-40s %10s %10s %12s %14s %10s %8s\n",
		"workload", "wall-sec", "wall-med", "sim-sec", "alloc-bytes", "allocs", "ledger")
	var rows []PerfRow
	for _, pc := range perfMatrix() {
		d, err := datasets.ByName("products", pc.prof)
		if err != nil {
			return nil, err
		}
		cfg := pc.cfg
		cfg.Model = o.Model
		// Warm-up run: faults in the dataset cache and steadies the heap.
		if _, err := pipeline.Run(d, cfg); err != nil {
			return nil, fmt.Errorf("bench: perf %s: %w", pc.name, err)
		}
		row := PerfRow{Name: pc.name}
		walls := make([]float64, 0, perfReps)
		for rep := 0; rep < perfReps; rep++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			//gnnvet:allow walltime — the perf harness's job is measuring real wall time (sim_sec carries the simulated clock)
			t0 := time.Now()
			res, err := pipeline.Run(d, cfg)
			//gnnvet:allow walltime — wall_sec perf-baseline measurement, not simulated time
			wall := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, fmt.Errorf("bench: perf %s: %w", pc.name, err)
			}
			walls = append(walls, wall)
			row.SimSec = res.Cluster.SimTime
			// Allocation counters take the min over reps like the wall
			// clock: runtime background allocations (GC bookkeeping,
			// timers) only ever add, and a single noisy rep must not
			// move the near-deterministic counters the 10% gate bounds.
			bytes := int64(m1.TotalAlloc - m0.TotalAlloc)
			allocs := int64(m1.Mallocs - m0.Mallocs)
			if rep == 0 || bytes < row.AllocBytes {
				row.AllocBytes = bytes
			}
			if rep == 0 || allocs < row.Allocs {
				row.Allocs = allocs
			}
			row.LedgerPeak = res.Cluster.LedgerPeakSpans
		}
		row.WallSec = minOf(walls)
		row.WallMedianSec = medianOf(walls)
		rows = append(rows, row)
		fmt.Fprintf(w, "%-40s %10.3f %10.3f %12.6g %14d %10d %8d\n",
			row.Name, row.WallSec, row.WallMedianSec, row.SimSec, row.AllocBytes, row.Allocs, row.LedgerPeak)
	}
	return rows, nil
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// WritePerfBaseline writes rows as a BENCH_*.json baseline file.
func WritePerfBaseline(path string, rows []PerfRow) error {
	b := PerfBaseline{
		Schema: PerfSchema,
		Note:   fmt.Sprintf("captured with GOMAXPROCS=%d on a %d-core host", runtime.GOMAXPROCS(0), runtime.NumCPU()),
		Rows:   rows,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadPerfBaseline loads a committed BENCH_*.json baseline.
func ReadPerfBaseline(path string) (*PerfBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b PerfBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: bad perf baseline %s: %w", path, err)
	}
	if b.Schema != PerfSchema {
		return nil, fmt.Errorf("bench: perf baseline %s has schema %q, want %q (re-capture with -perfout)",
			path, b.Schema, PerfSchema)
	}
	return &b, nil
}

// PerfWallTolerance is the regression gate's wall-time allowance: a
// measured minimum more than 25% over the committed baseline fails.
// Wall time is machine-dependent, so treat gate failures on unusually
// slow hosts as advisory — but in a pinned CI environment a trip means
// the simulator really got slower.
const PerfWallTolerance = 1.25

// perfWallSlack is the absolute allowance added on top of the
// relative tolerance: sub-100ms workloads jitter by tens of
// milliseconds under any scheduler, and a regression that small is
// never the signal this gate exists for.
const perfWallSlack = 0.1

// perfAllocTolerance bounds growth of the allocation count and of the
// allocated bytes; allocations are near-deterministic, so the bound is
// tighter than the wall gate.
const perfAllocTolerance = 1.10

// PerfGate compares measured rows against the committed baseline — it
// is PerfDiff(baseline, measured) plus an error when a threshold is
// breached, so every gate run prints the workload-by-workload margins:
// missing workloads, >25% wall-time regressions, >10% allocation
// growth, and any simulated-seconds drift (a determinism breach, not a
// performance one) all fail. Wall time is machine-class dependent, so
// a gate running on hardware slower than the capture host can widen
// (or with <1 values tighten) the relative allowance via the
// PERF_WALL_TOLERANCE environment variable (a ratio; the committed
// default is PerfWallTolerance) instead of editing the baseline —
// allocation and simulated-seconds checks are unaffected by it.
func PerfGate(w io.Writer, baselinePath string, rows []PerfRow) error {
	base, err := ReadPerfBaseline(baselinePath)
	if err != nil {
		return err
	}
	wallTol := PerfWallTolerance
	if s := os.Getenv("PERF_WALL_TOLERANCE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("bench: bad PERF_WALL_TOLERANCE %q", s)
		}
		wallTol = v
		fmt.Fprintf(w, "perf gate: wall tolerance overridden to %.2fx via PERF_WALL_TOLERANCE\n", v)
	}
	if PerfDiff(w, base, &PerfBaseline{Rows: rows}, wallTol) {
		return fmt.Errorf("bench: perf gate failed vs %s (FAIL and missing rows above)", baselinePath)
	}
	fmt.Fprintf(w, "perf gate OK vs %s (%d workloads within tolerance)\n", baselinePath, len(base.Rows))
	return nil
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return d
	}
	return d / m
}
