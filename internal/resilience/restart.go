package resilience

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/graphio"
)

// Attempt runs the cluster once under plan, starting at startEpoch. ck
// is the decoded checkpoint the attempt resumes from — its per-rank
// snapshots are the attempt's to restore — or nil when the attempt
// starts from the initial state.
type Attempt func(plan *cluster.FaultPlan, startEpoch int, ck *graphio.Checkpoint) (*cluster.Result, error)

// RunWithRestarts is the one restart driver: it runs attempt until one
// finishes, recovering from every injected fail-stop on the way.
//
// A clean run is exactly one attempt. After a fault-class failure
// (errors.As finds a *cluster.RankFailure) the fired plan entry is
// retired — the restored timeline must not re-fire it — the collector's
// partial boundary is discarded, and its latest complete checkpoint is
// decoded; the next attempt resumes from that checkpoint's epoch, or
// from epoch 0 when col is nil or has published nothing. Before every
// re-attempt restore is called with the checkpoint (nil = rebuild the
// deterministic initial state) so the caller can reset the replicated
// training state the attempts share. Every restart removes one plan
// entry, so the loop terminates. Any other error — an attempt's
// non-fault error, a checkpoint decode error — is returned as is.
//
// The returned Stats is nil when neither a plan nor a collector is
// configured: there is nothing to recover from and nothing to report.
func RunWithRestarts(plan *cluster.FaultPlan, col *Collector, restore func(ck *graphio.Checkpoint), attempt Attempt) (*cluster.Result, *Stats, error) {
	var rec *Stats
	if plan != nil || col != nil {
		rec = &Stats{}
	}
	startEpoch := 0
	var ck *graphio.Checkpoint
	for {
		if rec != nil {
			rec.Attempts++
		}
		res, err := attempt(plan, startEpoch, ck)
		if err == nil {
			return res, rec, nil
		}
		var rf *cluster.RankFailure
		if !errors.As(err, &rf) || plan == nil {
			return nil, nil, err // not a planned failure: nothing to retire
		}
		plan = plan.Retire(rf)
		ck, startEpoch = nil, 0
		restoreClock := 0.0
		if col != nil {
			col.Abort()
			if ck, err = col.Latest(); err != nil {
				return nil, nil, err
			}
			if ck != nil {
				startEpoch, restoreClock = ck.Epoch, col.LatestClock()
			}
		}
		rec.RecordFailure(rf, startEpoch, restoreClock)
		restore(ck)
	}
}
