package bench

import (
	"fmt"
	"io"
	"math"

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
	// report the raw makespan of the truncated run (below p = total
	// batches per-rank work is pinned, so the raw clock is the
	// comparable quantity; from there on it is a fixed-work run's
	// makespan); strong rows report the full epoch.
	EpochSec   float64
	Efficiency float64 // vs the series' smallest p (weak: T₀·(w/w₀)/T; strong: T₀·p₀/(T·p))
	WallSec    float64 // simulator wall-clock for the run (real seconds)
	LedgerPeak int     // contention ledger high-water spans (0 = ideal topology)
}

// ScalingGPUCounts is the default GPU-count axis of the scaling study.
// It reaches past the p=512 the paper's scaling argument is about —
// far past the p≤128 the figure experiments sweep — into the p=4096
// and p=8192 regime the discrete-event scheduler makes simulable (it
// runs at most GOMAXPROCS rank segments at once; see
// internal/cluster/sim).
var ScalingGPUCounts = []int{8, 32, 128, 512, 4096, 8192}

// CMax returns the largest replication factor the 1.5D grid admits at
// p — the biggest c with c | p and c² | p — or 0 when even c=2 does
// not fit. Growing c toward √p shrinks the stage count p/c² and the
// column-communicator size, which is what keeps the partitioned
// algorithm simulable (and, on real hardware, communication-avoiding)
// at large p; the scaling study sweeps c ∈ {2, CMax(p)} and reports
// where the series cross.
func CMax(p int) int {
	for c := int(math.Sqrt(float64(p))); c >= 2; c-- {
		if p%c == 0 && p%(c*c) == 0 {
			return c
		}
	}
	return 0
}

// scalingCell is one enumerated cell of the study: either a skip (with
// its reason) or a row the fold projects from the cell's run.
type scalingCell struct {
	row      ScalingRow // label columns; the fold fills the measured ones
	spec     Spec       // what the cell simulates (zero when skipped)
	perBlock int        // per-sampling-block batch share, for weak efficiency
	skip     string
}

// scalingCells enumerates the study's cells in print order, and the
// specs of the runnable ones in the same order. It simulates nothing. A
// weak cell whose batch cap reaches the full list (p ≥ total) has its
// strong twin's spec, so runSpecs simulates the two once.
func scalingCells(d *datasets.Dataset, o Options) (cells []*scalingCell, specs []Spec) {
	defaulted := len(o.GPUCounts) == 0
	total := len(pipeline.Batches(d, o.MaxBatches))
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

	for _, mode := range []string{"weak", "strong"} {
		for _, alg := range []string{"replicated", "partitioned", "partitioned-cmax"} {
			for _, coll := range collectives {
				for _, topo := range topologies {
					for _, p := range o.gpus(ScalingGPUCounts) {
						c, skip := cFor(p), ""
						switch alg {
						case "partitioned":
							// The series pins c=2, so the 1.5D algorithm's
							// degradation at fixed replication stays visible;
							// its grid needs c² | p.
							c = 2
							if p%4 != 0 {
								c, skip = 0, "partitioned grid needs 4 | p"
							} else if defaulted && p > 512 {
								// The fixed-c=2 grid degrades superlinearly with
								// p (its sampling collectives grow with the grid
								// dimensions — the failure mode this series
								// exists to show): one p=8192 cell simulates a
								// 168-second epoch and costs ~10 wall-minutes.
								// The default axis stops the series at p=512; an
								// explicit GPU list still runs any count
								// (measured blow-up rows are in EXPERIMENTS.md).
								skip = fmt.Sprintf("fixed c=2 grid intractable past p=512 (force with -experiment scaling -gpus %d; see EXPERIMENTS.md)", p)
							}
						case "partitioned-cmax":
							c = CMax(p)
							if c == 0 {
								skip = "no replication factor with c^2 | p"
							} else if c == 2 {
								skip = "cmax=2 duplicates the c=2 series"
							}
						}
						batches := total
						if mode == "weak" && p < total {
							batches = p // one batch per rank
						}
						// Sampling blocks sharing the batch list: ranks
						// (replicated) or grid rows (partitioned).
						blocks := p
						if c > 0 && alg != "replicated" {
							blocks = p / c
						}
						cell := &scalingCell{
							row: ScalingRow{
								Mode: mode, Algorithm: alg, Collective: coll.name,
								Topology: topo.name, P: p, C: c, Batches: batches,
							},
							perBlock: (batches + blocks - 1) / blocks, skip: skip,
						}
						cells = append(cells, cell)
						if skip != "" {
							continue
						}
						cell.spec = o.spec(d.Name, pipeline.Config{P: p, C: c, K: pipeline.KAll, Epochs: 1})
						cell.spec.Config.MaxBatches = batches
						cell.spec.Config.Model.Collectives = coll.tbl
						cell.spec.Config.Model.Topology = topo.topo
						if alg != "replicated" {
							cell.spec.Config.Algorithm = pipeline.GraphPartitioned
							cell.spec.Config.SparsityAware = true
						}
						specs = append(specs, cell.spec)
					}
				}
			}
		}
	}
	return cells, specs
}

// Scaling runs the weak- and strong-scaling study on one dataset
// ("products" at the chosen profile): the replicated algorithm and two
// partitioned series (fixed c=2, and c=CMax(p) — the c-sweep whose
// crossover the table footer reports), each all-reduce schedule, ideal
// and oversubscribed topologies, across the GPU axis.
//
//   - Weak scaling caps the epoch at min(p, total) batches. Below
//     p = total that is one batch per rank, so per-rank work is constant
//     and the ideal epoch time is flat; efficiency is T(p₀)/T(p). From
//     p = total on, the cap is the full list: a weak row is the raw
//     makespan of a fixed-work run, the same run its strong twin reads.
//   - Strong scaling runs the full batch list at every p, so the ideal
//     epoch time halves as p doubles; efficiency is T(p₀)·p₀/(T(p)·p).
//
// The runnable cells' specs go through runSpecs, so each distinct run
// is simulated once, and rows fold in enumeration order. WallSec
// reports the real time the simulator needed for the row's run — the
// simulator-performance axis this study exists to keep honest (the
// perf suite gates it; see Perf).
func Scaling(w io.Writer, o Options) ([]ScalingRow, error) {
	d, err := datasets.ByName("products", o.Profile)
	if err != nil {
		return nil, err
	}
	cells, specs := scalingCells(d, o)
	// What a row reads of its run: weak rows the raw makespan, strong
	// rows the full epoch.
	type measured struct {
		simTime, epoch, wall float64
		ledgerPeak           int
	}
	runs, err := runSpecs(specs, func(res *pipeline.Result, wall float64) measured {
		return measured{res.Cluster.SimTime, res.LastEpoch().Total, wall, res.Cluster.LedgerPeakSpans}
	})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "Scaling study: %s/%s, weak + strong, per algorithm x collective x topology (simulated epoch seconds)\n",
		d.Name, o.Profile)
	fmt.Fprintf(w, "%-6s %-16s %-6s %-8s %5s %3s %7s %10s %10s %9s %7s\n",
		"mode", "algorithm", "coll", "topology", "p", "c", "batches", "epoch-sec", "efficiency", "wall-sec", "ledger")

	// Fold in enumeration order: efficiency bases are per series, and
	// the printed table never depends on pool scheduling.
	var rows []ScalingRow
	bases := map[[4]string]*scalingCell{}
	for _, cell := range cells {
		row := &cell.row
		if cell.skip != "" {
			fmt.Fprintf(w, "%-6s %-16s %-6s %-8s %5d   - skipped: %s\n",
				row.Mode, row.Algorithm, row.Collective, row.Topology, row.P, cell.skip)
			continue
		}
		run := runs[len(rows)]
		row.WallSec, row.LedgerPeak = run.wall, run.ledgerPeak
		row.EpochSec = run.epoch
		if row.Mode == "weak" {
			// Raw truncated-run makespan: LastEpoch().Total is scaled to
			// a full epoch when MaxBatches truncates, and no
			// extrapolation may enter the comparison.
			row.EpochSec = run.simTime
		}
		series := [4]string{row.Mode, row.Algorithm, row.Collective, row.Topology}
		base := bases[series]
		if base == nil {
			bases[series] = cell
			row.Efficiency = 1
		} else if row.EpochSec > 0 {
			if row.Mode == "weak" {
				// Constant per-block work: a flat raw clock is 100%
				// (scaled when ceil-division makes the per-block share
				// differ from the base's).
				row.Efficiency = base.row.EpochSec * float64(cell.perBlock) / float64(base.perBlock) / row.EpochSec
			} else {
				// Fixed total work: halving epoch time per doubling is 100%.
				row.Efficiency = base.row.EpochSec * float64(base.row.P) / (row.EpochSec * float64(row.P))
			}
		}
		rows = append(rows, *row)
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
