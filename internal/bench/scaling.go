package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
)

// ScalingRow is one cell of the scaling study: one (mode, algorithm,
// collective schedule, topology, p) training run.
type ScalingRow struct {
	Mode       string // "weak" (batches ∝ p) or "strong" (fixed batches)
	Algorithm  string // "replicated", "partitioned" (c=2) or "partitioned-cmax"
	Collective string // all-reduce schedule the run charged under
	Topology   string
	P, C       int
	Batches    int // global batches simulated per epoch
	// EpochSec is the simulated seconds the run charged. Weak rows
	// report the raw makespan of the truncated run (per-rank work is
	// pinned, so the raw clock is the comparable quantity); strong
	// rows report the full epoch.
	EpochSec   float64
	Efficiency float64 // vs the series' smallest p (weak: T₀·(w/w₀)/T; strong: T₀·p₀/(T·p))
	WallSec    float64 // simulator wall-clock for the run (real seconds)
	LedgerPeak int     // contention ledger high-water spans (0 = ideal topology)
}

// ScalingGPUCounts is the default GPU-count axis of the scaling study.
// It reaches past the p=512 the paper's scaling argument is about —
// far past the p≤128 the figure experiments sweep — into the p=4096
// and p=8192 regime the discrete-event backend makes simulable (one
// event loop instead of 8192 goroutines; see cluster.DESBackend).
var ScalingGPUCounts = []int{8, 32, 128, 512, 4096, 8192}

// scalingPartitionedC returns the replication factor the fixed-c
// partitioned series uses at p, or 0 when no valid grid exists: the
// pipeline needs c | p and c² | p, and the series pins c=2 (so the
// 1.5D algorithm's degradation at fixed replication stays visible),
// which requires 4 | p. Counts that don't qualify are skipped, not
// errors — the Tprob experiment set that precedent for invalid (p, c)
// combos.
func scalingPartitionedC(p int) int {
	if p%4 != 0 {
		return 0
	}
	return 2
}

// CMax returns the largest replication factor the 1.5D grid admits at
// p — the biggest c with c | p and c² | p — or 0 when even c=2 does
// not fit. Growing c toward √p shrinks the stage count p/c² and the
// column-communicator size, which is what keeps the partitioned
// algorithm simulable (and, on real hardware, communication-avoiding)
// at large p; the scaling study sweeps c ∈ {2, CMax(p)} and reports
// where the series cross.
func CMax(p int) int {
	for c := isqrt(p); c >= 2; c-- {
		if p%c == 0 && p%(c*c) == 0 {
			return c
		}
	}
	return 0
}

func isqrt(n int) int {
	c := 0
	for (c+1)*(c+1) <= n {
		c++
	}
	return c
}

// scalingCell is one enumerated cell of the study: either a skip (with
// its reason) or a run whose row the pool fills in.
type scalingCell struct {
	mode, alg string
	collName  string
	coll      cluster.Collectives
	topoName  string
	topo      *cluster.Topology
	p, c      int
	batches   int
	series    int // index of the (mode, alg, coll, topo) efficiency series
	perBlock  int // per-sampling-block batch share, for weak efficiency
	skip      string
	row       ScalingRow
}

// Scaling runs the weak- and strong-scaling study on one dataset
// ("products" at the chosen profile): the replicated algorithm and two
// partitioned series (fixed c=2, and c=CMax(p) — the c-sweep whose
// crossover the table footer reports), each all-reduce schedule, ideal
// and oversubscribed topologies, across the GPU axis.
//
//   - Weak scaling caps the epoch at min(p, total) batches, one per
//     rank, so per-rank work is constant and the ideal epoch time is
//     flat; efficiency is T(p₀)/T(p).
//   - Strong scaling runs the full batch list at every p, so the ideal
//     epoch time halves as p doubles; efficiency is T(p₀)·p₀/(T(p)·p).
//
// Cells are independent simulations and run on the sweep worker pool
// (Options.SweepWorkers); results fold in enumeration order, so the
// table is byte-identical at any worker count (goroutine-backend
// cells on contended topologies additionally run isolated from pool
// siblings — see the run-phase comment). WallSec reports the
// real time the simulator needed per run — the simulator-performance
// axis this study exists to keep honest (the perf suite gates it; see
// Perf).
func Scaling(w io.Writer, o Options) ([]ScalingRow, error) {
	o = o.withDefaults()
	defaulted := len(o.GPUCounts) == 0
	counts := o.gpus(ScalingGPUCounts)
	d, err := datasets.ByName("products", o.Profile)
	if err != nil {
		return nil, err
	}
	total := len(Batches(d, o.MaxBatches))

	collectives := []struct {
		name string
		tbl  cluster.Collectives
	}{
		{"flat", cluster.Collectives{}},
		{"ring", cluster.Collectives{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise}},
		{"hier", cluster.Collectives{AllReduce: cluster.Hierarchical}},
	}
	topologies := []struct {
		name string
		topo *cluster.Topology
	}{
		{"ideal", nil},
		{"oversub", cluster.OversubscribedTopology(4)},
	}

	// Enumerate every cell up front, in print order; the pool then
	// runs them in any order and the fold below walks them back in
	// enumeration order.
	var cells []*scalingCell
	series := 0
	for _, mode := range []string{"weak", "strong"} {
		for _, alg := range []string{"replicated", "partitioned", "partitioned-cmax"} {
			for _, coll := range collectives {
				for _, topo := range topologies {
					for _, p := range counts {
						cell := &scalingCell{
							mode: mode, alg: alg,
							collName: coll.name, coll: coll.tbl,
							topoName: topo.name, topo: topo.topo,
							p: p, series: series,
						}
						cell.c = CFor(p)
						switch alg {
						case "partitioned":
							cell.c = scalingPartitionedC(p)
							if cell.c == 0 {
								cell.skip = "partitioned grid needs 4 | p"
							} else if defaulted && p > 512 {
								// The fixed-c=2 grid degrades superlinearly with
								// p (its sampling collectives grow with the grid
								// dimensions — the failure mode this series
								// exists to show): one p=8192 cell simulates a
								// 168-second epoch and costs ~10 wall-minutes.
								// The default axis stops the series at p=512; an
								// explicit GPU list still runs any count
								// (measured blow-up rows are in EXPERIMENTS.md).
								cell.skip = fmt.Sprintf("fixed c=2 grid intractable past p=512 (force with -experiment scaling -gpus %d; see EXPERIMENTS.md)", p)
							}
						case "partitioned-cmax":
							cell.c = CMax(p)
							if cell.c == 0 {
								cell.skip = "no replication factor with c^2 | p"
							} else if cell.c == 2 {
								cell.skip = "cmax=2 duplicates the c=2 series"
							}
						}
						batches := total
						if mode == "weak" && p < total {
							batches = p // one batch per rank
						}
						cell.batches = batches
						// Sampling blocks sharing the batch list: ranks
						// (replicated) or grid rows (partitioned).
						blocks := p
						if cell.c > 0 && alg != "replicated" {
							blocks = p / cell.c
						}
						cell.perBlock = (batches + blocks - 1) / blocks
						cells = append(cells, cell)
					}
					series++
				}
			}
		}
	}

	runOne := func(cell *scalingCell) error {
		model := o.Model
		model.Collectives = cell.coll
		cfg := pipeline.Config{
			P: cell.p, C: cell.c, K: pipeline.KAll,
			Epochs: 1, Seed: o.Seed,
			Model:      model,
			Topology:   cell.topo,
			MaxBatches: cell.batches,
		}
		if cell.alg != "replicated" {
			cfg.Algorithm = pipeline.GraphPartitioned
			cfg.SparsityAware = true
		}
		//gnnvet:allow walltime — scaling rows report real harness wall time next to the simulated makespan
		t0 := time.Now()
		res, err := pipeline.Run(d, cfg)
		if err != nil {
			return fmt.Errorf("bench: scaling %s/%s/%s/%s p=%d: %w",
				cell.mode, cell.alg, cell.collName, cell.topoName, cell.p, err)
		}
		cell.row = ScalingRow{
			Mode: cell.mode, Algorithm: cell.alg, Collective: cell.collName,
			Topology: cell.topoName, P: cell.p, C: cell.c, Batches: cell.batches,
			//gnnvet:allow walltime — wall-clock column of the scaling study
			WallSec:    time.Since(t0).Seconds(),
			LedgerPeak: res.Cluster.LedgerPeakSpans,
		}
		if cell.mode == "weak" {
			// Raw truncated-run makespan: per-block work is pinned, so
			// no extrapolation may enter the comparison
			// (LastEpoch().Total is scaled to a full epoch when
			// MaxBatches truncates).
			cell.row.EpochSec = res.Cluster.SimTime
		} else {
			cell.row.EpochSec = res.LastEpoch().Total
		}
		return nil
	}

	// Two run phases: cells whose simulation is scheduler-order-robust
	// go through the worker pool; goroutine-backend cells on a
	// contended topology run serially AFTER the pool drains. The
	// contention ledger commits flows in real lock-acquisition order
	// (first-committed-first-served, see cluster/contention.go), so a
	// goroutine-backend cluster's ledger order shifts when sibling
	// cells share the scheduler — isolating those cells gives them the
	// same solo-process conditions a -sweepworkers 1 run does. The DES
	// backend is immune (one event loop per cluster fixes the order),
	// and contention-off charging is scheduler-independent by the
	// bit-identicality discipline. (At GOMAXPROCS>1 the goroutine
	// backend's contended timings are scheduler-dependent even run to
	// run with no pool at all — the perf gate pins GOMAXPROCS=1 for
	// exactly this reason.)
	des := o.Model.Backend.Resolve() == cluster.DESBackend
	var robust, sensitive []int
	for i, cell := range cells {
		if cell.skip != "" {
			continue
		}
		if des || cell.topo == nil {
			robust = append(robust, i)
		} else {
			sensitive = append(sensitive, i)
		}
	}
	errs := make([]error, len(cells))
	runPhase := func(idx []int, workers int) {
		sub := runCells(len(idx), workers, func(k int) error { return runOne(cells[idx[k]]) })
		for k, e := range sub {
			errs[idx[k]] = e
		}
	}
	runPhase(robust, o.SweepWorkers)
	runPhase(sensitive, 1)

	fmt.Fprintf(w, "Scaling study: %s/%s, weak + strong, per algorithm x collective x topology (simulated epoch seconds)\n",
		d.Name, o.Profile)
	fmt.Fprintf(w, "%-6s %-16s %-6s %-8s %5s %3s %7s %10s %10s %9s %7s\n",
		"mode", "algorithm", "coll", "topology", "p", "c", "batches", "epoch-sec", "efficiency", "wall-sec", "ledger")

	// Fold in enumeration order: efficiency bases are per series, and
	// the printed table never depends on pool scheduling.
	var rows []ScalingRow
	bases := map[int]*scalingCell{}
	for i, cell := range cells {
		if cell.skip != "" {
			fmt.Fprintf(w, "%-6s %-16s %-6s %-8s %5d   - skipped: %s\n",
				cell.mode, cell.alg, cell.collName, cell.topoName, cell.p, cell.skip)
			continue
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
		row := cell.row
		base := bases[cell.series]
		if base == nil {
			bases[cell.series] = cell
			row.Efficiency = 1
		} else if row.EpochSec > 0 {
			if cell.mode == "weak" {
				// Constant per-block work: a flat raw clock is 100%
				// (scaled when ceil-division makes the per-block share
				// differ from the base's).
				row.Efficiency = base.row.EpochSec * float64(cell.perBlock) / float64(base.perBlock) / row.EpochSec
			} else {
				// Fixed total work: halving epoch time per doubling is 100%.
				row.Efficiency = base.row.EpochSec * float64(base.row.P) / (row.EpochSec * float64(row.P))
			}
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-6s %-16s %-6s %-8s %5d %3d %7d %10.4f %10.3f %9.3f %7d\n",
			row.Mode, row.Algorithm, row.Collective, row.Topology, row.P, row.C,
			row.Batches, row.EpochSec, row.Efficiency, row.WallSec, row.LedgerPeak)
	}

	printCSweepCrossover(w, rows)
	return rows, nil
}

// printCSweepCrossover footers the table with the c-sweep verdict: per
// (mode, collective, topology), the smallest p where the c=CMax(p)
// grid beats fixed c=2 on simulated epoch time. The crossover is the
// study's replication headline — past it, scaling the 1.5D algorithm
// means scaling c with p, not holding it fixed.
func printCSweepCrossover(w io.Writer, rows []ScalingRow) {
	type key struct{ mode, coll, topo string }
	c2 := map[key]map[int]float64{}
	for _, r := range rows {
		if r.Algorithm != "partitioned" {
			continue
		}
		k := key{r.Mode, r.Collective, r.Topology}
		if c2[k] == nil {
			c2[k] = map[int]float64{}
		}
		c2[k][r.P] = r.EpochSec
	}
	for _, r := range rows {
		if r.Algorithm != "partitioned-cmax" {
			continue
		}
		k := key{r.Mode, r.Collective, r.Topology}
		t2, ok := c2[k][r.P]
		if !ok {
			continue
		}
		if r.EpochSec < t2 {
			fmt.Fprintf(w, "c-sweep crossover (%s/%s/%s): c=%d beats c=2 from p=%d (%.4f vs %.4f epoch-sec)\n",
				r.Mode, r.Collective, r.Topology, r.C, r.P, r.EpochSec, t2)
			delete(c2, k)
		}
	}
}
