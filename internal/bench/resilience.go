package bench

import (
	"fmt"
	"io"

	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// ResilienceRow is one cell of the checkpoint-interval sweep: a
// training strategy run at one checkpoint cadence, once cleanly and
// once with an injected mid-run fail-stop.
type ResilienceRow struct {
	Strategy string
	Interval int // checkpoint every N completed epochs; 0 = none

	// CleanSim is the unfailed run's simulated seconds at this
	// interval, including the per-boundary checkpoint charges;
	// OverheadPct is its overhead relative to the no-checkpoint run.
	CleanSim    float64
	OverheadPct float64

	// FailAt is the injected fail-stop time; Attempts, ResumeEpoch and
	// WastedSim report the recovery (see resilience.Stats). TotalSim is
	// the complete simulated cost of the failed run: the final
	// (bit-identical) timeline plus the discarded work — what the
	// failure actually cost at this checkpoint cadence.
	FailAt      float64
	Attempts    int
	ResumeEpoch int
	WastedSim   float64
	TotalSim    float64
}

// resilienceEpochs is the pinned epoch count of the sweep: boundaries
// at 1..3 give every swept interval a distinct checkpoint schedule.
const resilienceEpochs = 4

// Resilience sweeps the checkpoint interval against an injected
// fail-stop for the paper's two training strategies, measuring the
// trade the subsystem exists to navigate: frequent checkpoints cost
// simulated time on every run (each rank charges the serialized state
// over HostLink at each boundary), while sparse ones make a failure
// expensive (everything past the last boundary is re-executed). The
// injected failure lands at ~60% of the no-checkpoint clean run's
// simulated span (rank p/2); any plan on Options.Model is stripped.
// nil intervals sweep {0, 1, 2, 4}. The replicated strategy runs at
// c=4 and the partitioned one at c=2, each lowered to the largest
// factor p's grid admits (c | p; c^2 | p for the partitioned grid).
// The runs go in two rounds, because the fault time comes from the
// clean span: every clean run, then every faulted one.
func Resilience(w io.Writer, dataset string, p int, intervals []int, o Options) ([]ResilienceRow, error) {
	o.Model.Faults = nil
	if len(intervals) == 0 {
		intervals = []int{0, 1, 2, 4}
	}
	strategies := []pipeline.Config{
		{P: p, C: divisorAtMost(p, 4), Epochs: resilienceEpochs},
		{P: p, C: gridC(p, 2), Epochs: resilienceEpochs,
			Algorithm: pipeline.GraphPartitioned, SparsityAware: true},
	}
	// Per strategy, its no-checkpoint baseline, then one run per interval.
	n := 1 + len(intervals)
	var clean []Spec
	for _, cfg := range strategies {
		for _, interval := range append([]int{0}, intervals...) {
			cfg.CkptInterval = interval
			clean = append(clean, o.spec(dataset, cfg))
		}
	}
	cleanRuns, err := runSpecs(clean, result)
	if err != nil {
		return nil, err
	}
	var faulted []Spec
	for i, s := range clean {
		if i%n != 0 {
			s.Config.Model.Faults = resilience.FailAt(p/2, cleanRuns[i-i%n].Cluster.SimTime*0.6)
			faulted = append(faulted, s)
		}
	}
	faultedRuns, err := runSpecs(faulted, result)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "Checkpoint/restore sweep, dataset=%s p=%d epochs=%d (fault at ~60%% of clean span)\n",
		dataset, p, resilienceEpochs)
	fmt.Fprintf(w, "%-12s %9s %12s %9s %12s %9s %7s %12s %12s\n",
		"strategy", "interval", "clean sim s", "ovhd %", "fail at s", "attempts", "resume", "wasted sim s", "total sim s")
	var rows []ResilienceRow
	for i, failed := range faultedRuns {
		// faulted[i] is clean[j] with a fault plan; clean[j-j%n] is its baseline.
		j := i + i/len(intervals) + 1
		clean0, clean := cleanRuns[j-j%n], cleanRuns[j]
		rec := failed.Recovery
		row := ResilienceRow{
			Strategy:    algorithmName(faulted[i].Config.Algorithm),
			Interval:    faulted[i].Config.CkptInterval,
			CleanSim:    clean.Cluster.SimTime,
			OverheadPct: (clean.Cluster.SimTime/clean0.Cluster.SimTime - 1) * 100,
			Attempts:    rec.Attempts,
			WastedSim:   rec.WastedSim,
			TotalSim:    failed.Cluster.SimTime + rec.WastedSim,
		}
		if len(rec.Failures) > 0 {
			row.FailAt = rec.Failures[0].At
			row.ResumeEpoch = rec.RestartEpochs[0]
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-12s %9d %12.5f %9.2f %12.5f %9d %7d %12.5f %12.5f\n",
			row.Strategy, row.Interval, row.CleanSim, row.OverheadPct,
			row.FailAt, row.Attempts, row.ResumeEpoch, row.WastedSim, row.TotalSim)
	}
	return rows, nil
}
