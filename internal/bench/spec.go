package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/datasets"
	"repro/internal/pipeline"
)

// Spec is one training run an experiment makes: a dataset at a profile,
// trained under a pipeline config. Its encoding/json form is its
// identity: specs that encode alike are one run, and the decoded form
// replays the run exactly (withDefaults re-derives what the config does
// not export).
type Spec struct {
	Name    string `json:"-"` // a pinned spec's label (a perf row); no part of the run
	Dataset string
	Profile datasets.Profile
	Config  pipeline.Config
}

// spec returns the run of cfg on the named dataset under o's profile,
// batch cap, seed and platform model.
func (o Options) spec(dataset string, cfg pipeline.Config) Spec {
	cfg.MaxBatches, cfg.Seed, cfg.Model = o.MaxBatches, o.Seed, o.Model
	return Spec{Dataset: dataset, Profile: o.Profile, Config: cfg}
}

// runSpecs runs each distinct spec once, on the sweep pool with one
// worker per GOMAXPROCS, and returns, in list order, what keep takes
// from each spec's run (its result and the host seconds it took), so a
// sweep holds no more of a run than its rows read. The scheduler
// commits in event-key order, so sibling runs cannot move a result:
// folding the values in list order prints the same table at any pool
// size, all but the wall.
func runSpecs[T any](specs []Spec, keep func(res *pipeline.Result, wall float64) T) ([]T, error) {
	if specsHook != nil {
		specsHook(specs)
	}
	var distinct []Spec
	at, index := make([]int, len(specs)), map[string]int{}
	for i, s := range specs {
		key, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		k, ok := index[string(key)]
		if !ok {
			k = len(distinct)
			index[string(key)] = k
			distinct = append(distinct, s)
		}
		at[i] = k
	}
	kept := make([]T, len(distinct))
	errs := runCells(len(distinct), runtime.GOMAXPROCS(0), func(i int) error {
		s := distinct[i]
		d, err := datasets.ByName(s.Dataset, s.Profile)
		if err != nil {
			return err
		}
		//gnnvet:allow walltime — a run reports the real harness time it took next to its simulated makespan
		t0 := time.Now()
		res, err := pipeline.Run(d, s.Config)
		//gnnvet:allow walltime — the wall-clock column of the rows a run projects into
		wall := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		kept[i] = keep(res, wall)
		return nil
	})
	out := make([]T, len(specs))
	for i, k := range at {
		if s := distinct[k]; errs[k] != nil {
			return nil, fmt.Errorf("bench: %s/%s p=%d c=%d: %w", s.Dataset, s.Profile, s.Config.P, s.Config.C, errs[k])
		}
		out[i] = kept[k]
	}
	return out, nil
}

// specsHook, when a test sets it, sees every spec list runSpecs runs.
var specsHook func([]Spec)

// lastEpoch keeps a run's last epoch; result keeps all of it.
func lastEpoch(res *pipeline.Result, _ float64) pipeline.EpochStats { return res.LastEpoch() }
func result(res *pipeline.Result, _ float64) *pipeline.Result       { return res }
