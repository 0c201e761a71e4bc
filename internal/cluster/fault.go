package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Failure is one planned fail-stop event: the rank halts permanently
// the first time its own simulated clock reaches At (checked on the
// per-charge path, so the failure lands at the first charge boundary
// at or after At — deterministically). At must be
// strictly positive: a rank that was dead before doing anything is a
// smaller cluster, not a failure.
type Failure struct {
	Rank int
	At   float64 // simulated seconds; must be > 0 and finite
}

// String renders the failure in the canonical rank@seconds flag form.
func (f Failure) String() string { return fmt.Sprintf("%d@%v", f.Rank, f.At) }

// FaultPlan is the deterministic fault-injection seam: the complete,
// pre-declared set of fail-stop events a run injects. It rides the
// CostModel (CostModel.Faults) so a plan travels everywhere a model
// does — pipeline configs, baselines, the bench harness — without
// extra plumbing, and nil keeps every existing run bit-identical.
//
// Failure times are absolute simulated times on the failing rank's own
// clock. When a failed run restarts from a checkpoint, the driver
// removes the failure that fired (FaultPlan.Retire) so the restarted
// timeline does not re-fire it forever; remaining failures whose time
// falls at or before the restored clock fire on the rank's first
// subsequent charge.
//
// Plans are constructed only behind the seam — internal/resilience
// (seeded-random sweep plans), cliutil (the -faults flag) and this
// package — an invariant enforced by the faultseam gnnvet analyzer.
type FaultPlan struct {
	Failures []Failure
}

// Validate checks the plan against a cluster of n ranks (n <= 0 skips
// the range check, for callers that validate before sizing).
func (p *FaultPlan) Validate(n int) error {
	if p == nil {
		return nil
	}
	for _, f := range p.Failures {
		if f.Rank < 0 {
			return fmt.Errorf("cluster: fault plan has negative rank %d", f.Rank)
		}
		if n > 0 && f.Rank >= n {
			return fmt.Errorf("cluster: fault plan rank %d outside %d ranks", f.Rank, n)
		}
		if !(f.At > 0) || math.IsInf(f.At, 0) {
			return fmt.Errorf("cluster: fault plan time %v for rank %d: must be positive and finite", f.At, f.Rank)
		}
	}
	return nil
}

// failAt returns the earliest planned failure time for the rank, or 0
// when the plan holds none (0 is unambiguous: Validate rejects
// non-positive times).
func (p *FaultPlan) failAt(rank int) float64 {
	if p == nil {
		return 0
	}
	at := 0.0
	for _, f := range p.Failures {
		if f.Rank == rank && (at == 0 || f.At < at) {
			at = f.At
		}
	}
	return at
}

// Retire returns a copy of the plan with the first entry equal to the
// fired failure removed — the restart driver's step after Run surfaces
// a RankFailure, so a restored timeline does not re-fire it. It is
// phrased on the error itself so drivers never assemble Failure values
// by hand (the faultseam analyzer confines that to the seam packages).
// Returns nil when the removal empties the plan.
func (p *FaultPlan) Retire(rf *RankFailure) *FaultPlan {
	if p == nil {
		return nil
	}
	f := Failure{Rank: rf.Rank, At: rf.At}
	out := make([]Failure, 0, len(p.Failures))
	removed := false
	for _, e := range p.Failures {
		if !removed && e == f {
			removed = true
			continue
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil
	}
	return &FaultPlan{Failures: out}
}

// String renders the plan in the canonical -faults flag form:
// comma-separated rank@seconds entries sorted by (time, rank).
func (p *FaultPlan) String() string {
	if p == nil || len(p.Failures) == 0 {
		return ""
	}
	fs := append([]Failure(nil), p.Failures...)
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].At != fs[j].At {
			return fs[i].At < fs[j].At
		}
		return fs[i].Rank < fs[j].Rank
	})
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// ErrRankFailed is the sentinel every injected fail-stop error wraps:
// the rank's own RankFailure and the collective-abort errors surviving
// ranks observe both satisfy errors.Is(err, ErrRankFailed), which is
// what separates recoverable fault-class failures from bug-class
// poisons (mismatched collectives, transform panics) that still crash.
var ErrRankFailed = errors.New("rank failed (injected fail-stop)")

// RankFailure is the error a planned fail-stop surfaces: the failing
// rank's body panics with it at the charge that crosses the planned
// time, the cluster recovers it into the rank's error slot,
// and Run returns the earliest one so a restart driver can identify —
// and retire, via FaultPlan.Retire — the failure that fired. At is
// the planned time (the plan entry), not the clock reading at the
// fatal charge's end.
type RankFailure struct {
	Rank int
	At   float64
}

func (f *RankFailure) Error() string {
	return fmt.Sprintf("cluster: rank %d hit its injected fail-stop at sim t=%vs", f.Rank, f.At)
}

// Unwrap makes errors.Is(err, ErrRankFailed) true for every
// RankFailure.
func (f *RankFailure) Unwrap() error { return ErrRankFailed }

// faultClass returns the recovered panic value as an error when it is
// a recoverable injected-fault error (wraps ErrRankFailed), or nil for
// bug-class panics that must keep crashing.
func faultClass(p any) error {
	err, ok := p.(error)
	if !ok || !errors.Is(err, ErrRankFailed) {
		return nil
	}
	return err
}

// noteFailure records the RankFailure at the root of err (if any)
// against the terminating rank, so the drain can diagnose
// abandoned collectives as fault aborts and Run can return the
// earliest failure. The root is recorded under its own rank too: a
// rank that aborts because a peer died (a cascade — e.g. a group
// leader stuck in the leaders' exchange of a hierarchical allreduce)
// abandons ITS downstream collectives, and survivors there must trace
// the abandonment back to the peer's fail-stop, not see a bug-class
// deadlock.
func (c *Cluster) noteFailure(rank int, err error) {
	var rf *RankFailure
	if !errors.As(err, &rf) {
		return
	}
	c.mu.Lock()
	if c.failures == nil {
		c.failures = map[int]*RankFailure{}
	}
	if _, ok := c.failures[rank]; !ok {
		c.failures[rank] = rf
	}
	if _, ok := c.failures[rf.Rank]; !ok {
		c.failures[rf.Rank] = rf
	}
	c.mu.Unlock()
}

// failureOf returns the root fail-stop behind a rank's termination in
// the current Run — its own, or the peer failure it aborted on — or
// nil when the rank has not terminated on a fault path.
func (c *Cluster) failureOf(rank int) *RankFailure {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures[rank]
}

// earliestFailure returns the recorded failure with the smallest
// (time, rank), or nil when none fired.
func (c *Cluster) earliestFailure() *RankFailure {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *RankFailure
	for _, f := range c.failures {
		if best == nil || f.At < best.At || (f.At == best.At && f.Rank < best.Rank) {
			best = f
		}
	}
	return best
}

// runBody executes one rank's body, converting a recoverable injected
// fail-stop panic (the rank's own RankFailure from the charge path, or
// a poisoned-collective abort observed by a survivor) into the body's
// error. Bug-class panics — genuine deadlock diagnostics, mismatched
// collectives, program bugs — re-panic and crash exactly as before.
//
// A fault-class error the body RETURNS is recorded too: the engine's
// overlapped schedule converts a forked stream's fail-stop panic into a
// stage error that rides the queue tokens back to the body, so the
// failure reaches here as a return value, not a panic. Recording
// happens before the rank's exit marks it done, so when the drain finds
// survivors' abandoned collectives it diagnoses them as fault aborts
// rather than deadlocks.
func (c *Cluster) runBody(body func(r *Rank) error, r *Rank) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			if err != nil && errors.Is(err, ErrRankFailed) {
				c.noteFailure(r.ID, err)
			}
			return
		}
		e := faultClass(p)
		if e == nil {
			panic(p)
		}
		c.noteFailure(r.ID, e)
		err = e
	}()
	return body(r)
}
