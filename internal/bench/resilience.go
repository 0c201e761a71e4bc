package bench

import (
	"fmt"
	"io"

	"repro/internal/datasets"
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
// nil intervals sweep {0, 1, 2, 4}. Cells run serially: each failed
// run already contains restarts, and the table is small.
func Resilience(w io.Writer, dataset string, p int, intervals []int, o Options) ([]ResilienceRow, error) {
	o = o.withDefaults()
	o.Model.Faults = nil
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	if len(intervals) == 0 {
		intervals = []int{0, 1, 2, 4}
	}
	strategies := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"replicated", pipeline.Config{P: p, C: 4}},
		{"partitioned", pipeline.Config{P: p, C: 2,
			Algorithm: pipeline.GraphPartitioned, SparsityAware: true}},
	}
	fmt.Fprintf(w, "Checkpoint/restore sweep, dataset=%s p=%d epochs=%d (fault at ~60%% of clean span)\n",
		dataset, p, resilienceEpochs)
	fmt.Fprintf(w, "%-12s %9s %12s %9s %12s %9s %7s %12s %12s\n",
		"strategy", "interval", "clean sim s", "ovhd %", "fail at s", "attempts", "resume", "wasted sim s", "total sim s")
	var rows []ResilienceRow
	for _, st := range strategies {
		base := st.cfg
		base.Epochs = resilienceEpochs
		base.Seed = o.Seed
		base.MaxBatches = o.MaxBatches
		base.Model = o.Model

		clean0, err := pipeline.Run(d, base)
		if err != nil {
			return nil, fmt.Errorf("bench: resilience %s clean baseline: %w", st.name, err)
		}
		plan := resilience.FailAt(p/2, clean0.Cluster.SimTime*0.6)
		for _, interval := range intervals {
			cfg := base
			cfg.CkptInterval = interval
			clean := clean0
			if interval != 0 {
				if clean, err = pipeline.Run(d, cfg); err != nil {
					return nil, fmt.Errorf("bench: resilience %s interval %d clean: %w", st.name, interval, err)
				}
			}
			cfg.Model.Faults = plan
			failed, err := pipeline.Run(d, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: resilience %s interval %d faulted: %w", st.name, interval, err)
			}
			rec := failed.Recovery
			row := ResilienceRow{
				Strategy:    st.name,
				Interval:    interval,
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
	}
	return rows, nil
}
