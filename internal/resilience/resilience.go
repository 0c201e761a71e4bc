// Package resilience is the fault-tolerance layer over the simulated
// cluster: deterministic fail-stop injection plans, epoch-boundary
// checkpointing of the complete resumable training state, and the one
// restart driver (RunWithRestarts) through which the training loop
// (pipeline.Run, and so every algorithm run on it) survives injected
// failures.
//
// The contract the differential harness's crash row pins: a run that
// fails at simulated time t and restarts from its latest epoch-boundary
// checkpoint finishes with a Result bit-identical to a run with the
// same checkpoint schedule and no failure. Three mechanisms combine to
// make that hold exactly, not just approximately:
//
//   - The replicated training state (model parameters and Adam
//     moments) is captured once per boundary — rank 0's copy, which
//     equals every rank's copy because the one shared optimizer steps
//     once per gradient all-reduce, before any rank leaves it.
//   - Each rank's simulated-time accounting (clock, per-phase float
//     accumulators, traffic counters, finished forked streams) is
//     snapshotted via cluster.RankSnapshot, whose Restore re-interns
//     phases and re-materializes ghost streams so every float addition
//     after the restore point happens in the uninterrupted run's order.
//   - Checkpoint state always round-trips through the graphio binary
//     codec (encode + decode in memory) before a restore consumes it,
//     so every recovery exercises — and the differential harness
//     therefore verifies — the serialized form, not a shortcut through
//     live pointers.
//
// Failure plans enter only through cluster.CostModel.Faults (the
// FaultPlan seam); the faultseam analyzer enforces that no other
// package constructs plan values directly — use FailAt, or
// cliutil.ParseFaults for the -faults flag.
package resilience

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/graphio"
)

// FailAt returns a single-failure plan: rank halts when its simulated
// clock reaches at (seconds).
func FailAt(rank int, at float64) *cluster.FaultPlan {
	return &cluster.FaultPlan{Failures: []cluster.Failure{{Rank: rank, At: at}}}
}

// Stats reports what recovery cost: how many attempts a run took, which
// injected failures fired, and how much simulated work was discarded
// (time from each attempt's restore point to its failure). A clean run
// has Attempts == 1 and zeroes elsewhere. Stats is diagnostic output —
// the differential harness excludes it from bit-identity comparison,
// since an unfailed run has nothing to record here.
type Stats struct {
	// Attempts counts cluster runs, including the successful final one.
	Attempts int
	// Failures lists the injected failures that fired, in firing order.
	Failures []cluster.Failure
	// RestartEpochs records, per restart, the epoch index the attempt
	// resumed from (0 = from scratch).
	RestartEpochs []int
	// WastedSim sums, over failures, the simulated seconds between the
	// restore point the restart resumes from and the failure — the
	// work past the latest surviving checkpoint, thrown away.
	WastedSim float64
}

// RecordFailure logs one fired failure: the restart will resume from
// resumeEpoch with ranks restored to restoreClock (0 when restarting
// from scratch).
func (s *Stats) RecordFailure(rf *cluster.RankFailure, resumeEpoch int, restoreClock float64) {
	s.Failures = append(s.Failures, cluster.Failure{Rank: rf.Rank, At: rf.At})
	s.RestartEpochs = append(s.RestartEpochs, resumeEpoch)
	if rf.At > restoreClock {
		s.WastedSim += rf.At - restoreClock
	}
}

// CheckpointBytes models the serialized size of one rank's share of a
// checkpoint write: parameters plus both Adam moment vectors at 8
// bytes each, plus a small fixed header. Each rank charges this over
// HostLink at every boundary — checkpointing is not free, and the
// interval sweep in the bench harness measures exactly this overhead
// against the recovery time it buys.
func CheckpointBytes(numParams int) int64 {
	return int64(numParams)*8*3 + 64
}

// PhaseCheckpoint is the phase bucket checkpoint writes accrue to.
const PhaseCheckpoint = "checkpoint"

// Collector assembles epoch-boundary checkpoints from per-rank
// contributions during a cluster run and publishes each one once it is
// complete (all p rank snapshots plus rank 0's training state).
//
// Ranks reach boundary e at different wall-clock moments, but the
// world collective inside every training step orders boundaries: a
// rank can only be at boundary e+1 after every rank has passed
// boundary e. The collector therefore keeps at most one boundary under
// construction and treats overlap as an invariant breach.
//
// The published form is the serialized checkpoint (graphio bytes), so
// a restore must go through the codec.
type Collector struct {
	//gnnvet:allow commitseam — snapshots are filed by rank, and a boundary is serialized once all p are in
	mu    sync.Mutex
	p     int
	epoch int // boundary under construction; -1 = none
	build *graphio.Checkpoint
	got   int
	state bool

	latest      []byte
	latestEpoch int     // completed epochs in latest; 0 = none yet
	latestClock float64 // max rank Main clock in latest (restore point)
}

// NewCollector returns a collector for p ranks.
func NewCollector(p int) *Collector {
	if p <= 0 {
		panic("resilience: collector needs p > 0")
	}
	return &Collector{p: p, epoch: -1}
}

// AddRank contributes rank's accounting snapshot at boundary epoch
// (the number of completed epochs). When the boundary is complete the
// checkpoint is serialized and published.
func (c *Collector) AddRank(epoch, rank int, snap cluster.RankSnapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.open(epoch); err != nil {
		return err
	}
	if c.build.Ranks[rank].Phases != nil || c.build.Ranks[rank].Ops != nil {
		return fmt.Errorf("resilience: duplicate snapshot from rank %d at boundary %d", rank, epoch)
	}
	c.build.Ranks[rank] = snap
	c.got++
	return c.finishLocked()
}

// AddState contributes the replicated training state at boundary epoch
// (call from rank 0, once per boundary).
func (c *Collector) AddState(epoch int, params []float64, optT int, optM, optV []float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.open(epoch); err != nil {
		return err
	}
	if c.state {
		return fmt.Errorf("resilience: duplicate training state at boundary %d", epoch)
	}
	c.build.Params = append([]float64(nil), params...)
	c.build.OptT = optT
	c.build.OptM = append([]float64(nil), optM...)
	c.build.OptV = append([]float64(nil), optV...)
	c.state = true
	return c.finishLocked()
}

func (c *Collector) open(epoch int) error {
	if c.epoch == epoch {
		return nil
	}
	if c.epoch != -1 {
		return fmt.Errorf("resilience: boundary %d opened while boundary %d incomplete (%d/%d ranks, state=%v)",
			epoch, c.epoch, c.got, c.p, c.state)
	}
	c.epoch = epoch
	c.build = &graphio.Checkpoint{Epoch: epoch, Ranks: make([]cluster.RankSnapshot, c.p)}
	c.got = 0
	c.state = false
	return nil
}

func (c *Collector) finishLocked() error {
	if c.got < c.p || !c.state {
		return nil
	}
	var buf bytes.Buffer
	if err := graphio.WriteCheckpoint(&buf, c.build); err != nil {
		return err
	}
	clock := 0.0
	for i := range c.build.Ranks {
		if t := c.build.Ranks[i].Main.Clock; t > clock {
			clock = t
		}
	}
	c.latest = buf.Bytes()
	c.latestEpoch = c.build.Epoch
	c.latestClock = clock
	c.epoch = -1
	c.build = nil
	return nil
}

// Abort discards a partially-built boundary (the published latest
// checkpoint is kept). The restart driver calls it after a failure:
// some ranks may have contributed snapshots at a boundary the failed
// attempt never completed, and the restarted run will reach that
// boundary again from scratch.
func (c *Collector) Abort() {
	c.mu.Lock()
	c.epoch = -1
	c.build = nil
	c.got = 0
	c.state = false
	c.mu.Unlock()
}

// Latest decodes and returns the most recent complete checkpoint, or
// nil if none has been published. Every call decodes the serialized
// bytes afresh, so restores always consume codec output.
func (c *Collector) Latest() (*graphio.Checkpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latest == nil {
		return nil, nil
	}
	return graphio.ReadCheckpoint(bytes.NewReader(c.latest))
}

// LatestClock returns the restore point's simulated time (max rank
// clock in the latest checkpoint), 0 when none exists. Drivers use it
// to price wasted work.
func (c *Collector) LatestClock() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latestClock
}
