package cluster

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/cluster/sim"
)

// Backend selects the execution machinery a simulated run blocks and
// synchronizes on. Both backends execute the same rank bodies and
// charge the same cost model, so results — trained parameters, losses,
// simulated seconds, link traffic — are bit-identical between them
// (pinned by the golden tests and the pipeline's differential harness);
// only the wall-clock cost of running the simulator differs.
type Backend int

const (
	// DefaultBackend is the zero value: "unset". Cluster construction
	// resolves it through the GNN_BACKEND environment variable and
	// falls back to GoroutineBackend, mirroring the DefaultAlgorithm
	// convention (an explicit selection always wins over the
	// environment).
	DefaultBackend Backend = iota
	// GoroutineBackend runs one goroutine per rank and per forked
	// stream, each blocking on its own one-token semaphore. It is the
	// default, and the faster backend on a multi-core host (rank bodies
	// run in parallel); event order — and with it contended timings —
	// follows the Go scheduler.
	GoroutineBackend
	// DESBackend runs the whole cluster as one discrete-event loop
	// (internal/cluster/sim): a single-threaded cooperative scheduler
	// with a priority event queue keyed by (time, rank, seq). Ranks
	// become tasks that park at synchronization points instead of
	// blocking OS threads, which removes the scheduler-churn wall at
	// large p and makes event order — and therefore contention-model
	// timings — deterministic.
	DESBackend
)

// BackendEnv is the environment variable consulted when a cost model
// leaves Backend unset.
const BackendEnv = "GNN_BACKEND"

// BackendFlagUsage is the flag help shared by the CLIs (cmd/trainer,
// cmd/gnnbench) so the binaries' flag sets stay in lockstep.
const BackendFlagUsage = "simulator backend: default, goroutine or des (default resolves $GNN_BACKEND, then goroutine)"

// String returns the flag spelling of the backend.
func (b Backend) String() string {
	switch b {
	case DefaultBackend:
		return "default"
	case GoroutineBackend:
		return "goroutine"
	case DESBackend:
		return "des"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// ParseBackend parses a flag spelling ("default", "goroutine",
// "des"/"event"/"discrete-event"). The empty string is DefaultBackend.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return DefaultBackend, nil
	case "goroutine", "goroutines", "go":
		return GoroutineBackend, nil
	case "des", "event", "discrete-event":
		return DESBackend, nil
	}
	return 0, fmt.Errorf("cluster: unknown backend %q (want default, goroutine or des)", s)
}

// Resolve returns the concrete backend this selection executes as:
// explicit > $GNN_BACKEND > goroutine. Exported for harness layers
// that need the execution mode before any cluster exists — the sweep
// worker pool keeps goroutine-backend cells with a contended topology
// off the pool, because the contention ledger commits in real lock
// order and concurrent sibling cells would perturb it (the DES
// backend's single event loop per cluster is immune).
func (b Backend) Resolve() Backend { return resolveBackend(b) }

// resolveBackend turns an unset selection into a concrete backend:
// explicit > $GNN_BACKEND > goroutine. An unparsable environment value
// is ignored rather than fatal — the environment is a convenience
// default, not a validated input path (the CLIs validate -backend).
func resolveBackend(b Backend) Backend {
	if b != DefaultBackend {
		return b
	}
	if env, err := ParseBackend(os.Getenv(BackendEnv)); err == nil && env != DefaultBackend {
		return env
	}
	return GoroutineBackend
}

// waiter is one timeline's blocking handle, and with scheduler below
// all a backend is. Every primitive — the collective rendezvous,
// Queue, Forked.Join — blocks the same way: under its own
// mutex it records the caller's waiter in its wait list, unlocks, and
// parks; whoever completes the wait removes the entry and readies it
// exactly once, at a simulated time that only orders events.
type waiter interface {
	// park blocks the calling timeline until its waiter is readied. The
	// caller must hold no lock: the peer that readies it may need it.
	park()
	// ready resumes the parked timeline at simulated time at. It may
	// land before the matching park (the caller is between its unlock
	// and its park), so an implementation must remember it.
	ready(at float64)
}

// scheduler starts timelines and waits for them.
type scheduler interface {
	// spawn starts fn as a new timeline of the given rank at simulated
	// time at, handing it the waiter it blocks on.
	spawn(rank int, at float64, fn func(waiter))
	// wait returns once every spawned timeline has finished.
	wait()
	// diag names the backend, and its state, in deadlock diagnostics.
	diag() string
}

func newScheduler(b Backend) scheduler {
	if b == DESBackend {
		return desSched{sim.New()}
	}
	return &goSched{}
}

// goWaiter is a one-token semaphore: a ready that lands before the park
// is kept, and each park is readied exactly once, so ready never blocks.
type goWaiter chan struct{}

func newGoWaiter() goWaiter { return make(goWaiter, 1) }

func (w goWaiter) park()         { <-w }
func (w goWaiter) ready(float64) { w <- struct{}{} }

// goSched runs every timeline on its own goroutine.
type goSched struct{ wg sync.WaitGroup }

func (s *goSched) spawn(_ int, _ float64, fn func(waiter)) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn(newGoWaiter())
	}()
}

func (s *goSched) wait()        { s.wg.Wait() }
func (s *goSched) diag() string { return " [backend=goroutine]" }

// taskWaiter is a *sim.Task seen through the waiter interface; being a
// pointer, it boxes without allocating.
type taskWaiter sim.Task

func (w *taskWaiter) park()            { (*sim.Task)(w).Park() }
func (w *taskWaiter) ready(at float64) { (*sim.Task)(w).Ready(at) }

// desSched runs every timeline as a task of one discrete-event loop;
// wait drives the loop and rethrows a task's escaped panic.
type desSched struct{ s *sim.Sched }

func (d desSched) spawn(rank int, at float64, fn func(waiter)) {
	t := d.s.Spawn(rank, func(t *sim.Task) { fn((*taskWaiter)(t)) })
	t.Ready(at)
}

func (d desSched) wait() { d.s.Run() }

// diag reports the event-queue depth: a drained queue with parked ranks
// is the classic deadlock symptom, a deep one points at livelock in the
// simulated program.
func (d desSched) diag() string {
	return fmt.Sprintf(" [backend=des, %d queued events]", d.s.Depth())
}
