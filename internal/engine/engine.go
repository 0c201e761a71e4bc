// Package engine is a staged-execution engine for the simulated
// training pipelines: a chain of named stages connected by bounded
// queues, through which a fixed number of items flow in order.
//
// The engine has two execution modes sharing one stage decomposition:
//
//   - Sequential (Overlap off): every item runs through all stages
//     inline on the caller's rank, in item order — byte-for-byte the
//     classic bulk-synchronous loop (sample; fetch; train; sample; ...).
//   - Overlapped (Overlap on): every stage but the last runs on its
//     own forked rank stream (cluster.Rank.ForkStream), connected by
//     bounded queues (cluster.Queue), so stage s prefetches item i+1
//     while stage s+1 works on item i. The last stage runs on the
//     caller's main timeline, so the rank's final clock is the
//     pipeline makespan.
//
// Simulated time stays honest under concurrency: each stage's charges
// accrue to its own stream clock; an item's completion time rides
// along with the item, and a consumer that outruns its producer stalls
// (WaitUntil, charged to the PhaseStall bucket) until the item is
// ready in simulated time. Bounded queues exert the same backpressure
// on the clocks that they exert on the goroutines: a producer may not
// start item i before the consumer has dequeued item i-q (q = queue
// capacity), which is what makes a capacity-1 queue model classic
// double buffering. Epoch time is therefore the max over concurrent
// streams, never the sum of phases.
//
// Credits bound every queue: each item queue has a credit queue
// flowing back, prefilled with one credit per slot; a stage sends an
// item only after taking a credit, and returns a credit after
// dequeuing an item. No queue ever holds more than its capacity, so
// Send never blocks — a stage waits only in Recv, for an item or a
// credit.
//
// Stage Run functions must be safe to run concurrently with the other
// stages' Run functions: a stage owns its mutable state exclusively.
// Stages may drive collectives: a stage's body issues them through the
// per-stream clone (cluster.Comm.ForStream, created on first use) so
// that in overlapped mode each collective-bearing stage drives its own
// communicator clone — the same-named stage streams across ranks meet
// on one clone, and no two streams of a rank ever share a rendezvous.
// Execute rejects duplicate stage names (two stages with one name would
// share a stream name and therefore a clone).
//
// Collectives compose with the credit protocol: a stage body blocked
// inside a collective holds no queue slots beyond the ones its items
// occupy — the input credit is released at dequeue time, before the
// body runs — and all ranks run the same stage decomposition with the
// same queue capacities, so a collective's peers can always drain
// their own queues far enough to arrive. Progress follows by induction
// on (stage, item) order; the simulated completion time of a
// collective is the max over the member streams' entry clocks plus the
// modeled cost, which is exactly the backpressure-adjusted time.
package engine

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
)

// PhaseStall is the phase bucket synchronization stalls accrue to:
// time a stage spent waiting for an upstream item that was not yet
// ready in simulated time, or for a downstream queue slot to free.
// Exposed (un-hidden) prefetch latency shows up here.
const PhaseStall = "stall"

// Stage is one step of a staged-execution Pipeline.
type Stage struct {
	// Name identifies the stage in diagnostics and names its stream, and
	// with it the communicator clones its collectives meet on.
	Name string
	// Queue is the stage's output queue capacity in items (overlapped
	// mode only; values < 1 are treated as 1). A capacity of one full
	// handoff unit gives double buffering: the stage computes item
	// i+q while the consumer drains item i.
	Queue int
	// Run processes item idx, charging its simulated time to r (the
	// stage's stream in overlapped mode, the caller's rank in
	// sequential mode). in is the previous stage's output (nil for
	// the first stage).
	Run func(r *cluster.Rank, idx int, in any) (any, error)
}

// Pipeline executes items through a chain of stages.
type Pipeline struct {
	Stages []Stage
	// Overlap selects the overlapped (software-pipelined) mode.
	Overlap bool
}

// token carries one item between stages along with the simulated time
// its producer finished it.
type token struct {
	val  any
	done float64
	err  error
}

// Execute runs items 0..n-1 through the stages on rank r and returns
// the first stage error. In overlapped mode all forked streams are
// joined before Execute returns.
func (p *Pipeline) Execute(r *cluster.Rank, n int) error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("engine: pipeline has no stages")
	}
	if n <= 0 {
		return nil
	}
	if !p.Overlap || len(p.Stages) == 1 {
		return p.executeSequential(r, n)
	}
	return p.executeOverlapped(r, n)
}

// executeSequential runs every stage of every item inline on r, in
// item order — the bulk-synchronous schedule.
func (p *Pipeline) executeSequential(r *cluster.Rank, n int) error {
	for i := 0; i < n; i++ {
		var v any
		var err error
		for _, st := range p.Stages {
			v, err = runItem(st, r, i, v)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// runItem runs one stage body on one item, converting a recoverable
// fault-class panic — the rank's own injected fail-stop from the
// charge path, or a poisoned-collective abort after a peer died — into
// the stage's error. This is what keeps the overlapped schedule's
// queue protocol in lockstep through a failure: the error rides the
// tokens downstream, every queue drains, and the forked streams join,
// so Execute returns the failure cleanly on both backends instead of
// leaking parked stream tasks (which the DES scheduler would diagnose
// as a deadlock). Bug-class panics still crash.
func runItem(st Stage, r *cluster.Rank, i int, in any) (v any, err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if e, ok := p.(error); ok && errors.Is(e, cluster.ErrRankFailed) {
			err = e
			return
		}
		panic(p)
	}()
	return st.Run(r, i, in)
}

// waitUntil advances r's clock to t, converting a fault-class panic —
// the stream crossing its rank's injected fail-stop time during the
// stall — into an error, for the same lockstep reason as runItem: a
// stall is the other place runStage advances a clock.
func waitUntil(r *cluster.Rank, t float64) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if e, ok := p.(error); ok && errors.Is(e, cluster.ErrRankFailed) {
			err = e
			return
		}
		panic(p)
	}()
	r.WaitUntil(t)
	return nil
}

// executeOverlapped forks one stream per producer stage and runs the
// final stage on the caller's timeline. Items and completion times
// flow downstream through bounded queues; queue-slot credits (each
// carrying the consumer's simulated dequeue time) flow back upstream,
// so both the concurrent streams and the simulated clocks feel the
// bounded queues. The queues and forks are the cluster's
// backend-neutral primitives, so the same code runs on goroutines or
// as discrete-event tasks.
func (p *Pipeline) executeOverlapped(r *cluster.Rank, n int) error {
	s := len(p.Stages)
	names := make(map[string]int, s)
	for i, st := range p.Stages {
		if j, dup := names[st.Name]; dup {
			return fmt.Errorf("engine: stages %d and %d share the name %q; overlapped stages need unique names (one stream and communicator clone set each)", j, i, st.Name)
		}
		names[st.Name] = i
	}
	items := make([]*cluster.Queue[token], s-1)
	credits := make([]*cluster.Queue[float64], s-1)
	for i, st := range p.Stages[:s-1] {
		q := max(st.Queue, 1)
		items[i] = cluster.NewQueue[token](q)
		credits[i] = cluster.NewQueue[float64](q)
		for j := 0; j < q; j++ {
			credits[i].Prefill(0) // queue starts empty: q free slots at t=0
		}
	}
	forks := make([]*cluster.Forked, s-1)
	for i := 0; i < s-1; i++ {
		var in *cluster.Queue[token]
		var inCred *cluster.Queue[float64]
		if i > 0 {
			in, inCred = items[i-1], credits[i-1]
		}
		i, in, inCred := i, in, inCred
		forks[i] = r.ForkStream(p.Stages[i].Name, func(stream *cluster.Rank) {
			p.runStage(stream, i, n, in, inCred, items[i], credits[i])
		})
	}
	err := p.runStage(r, s-1, n, items[s-2], credits[s-2], nil, nil)
	for _, f := range forks {
		f.Join(r)
	}
	return err
}

// runStage drives one stage over all n items. To stay deadlock-free
// it keeps the queue protocol in lockstep even after an error: every
// item is still received, credited and forwarded, with Run skipped and
// the error riding the tokens to the final stage.
func (p *Pipeline) runStage(r *cluster.Rank, s, n int,
	in *cluster.Queue[token], inCred *cluster.Queue[float64],
	out *cluster.Queue[token], outCred *cluster.Queue[float64]) error {
	var failed error
	for i := 0; i < n; i++ {
		var val any
		if in != nil {
			tok := in.Recv(r)
			if tok.err != nil && failed == nil {
				failed = tok.err
			}
			val = tok.val
			// The item lands in the queue at tok.done; a consumer
			// that arrives earlier stalls until it is ready.
			if failed == nil && tok.done > r.Clock() {
				r.SetPhase(PhaseStall)
				if err := waitUntil(r, tok.done); err != nil {
					failed = err
				}
			}
			// Dequeuing frees the slot at our (post-stall) now.
			inCred.Send(r, r.Clock())
		}
		if outCred != nil {
			// A free output slot is a precondition for starting the
			// item (double buffering: nowhere to put it otherwise).
			t := outCred.Recv(r)
			if failed == nil && t > r.Clock() {
				r.SetPhase(PhaseStall)
				if err := waitUntil(r, t); err != nil {
					failed = err
				}
			}
		}
		if failed == nil {
			v, err := runItem(p.Stages[s], r, i, val)
			if err != nil {
				failed = err
			} else {
				val = v
			}
		}
		if out != nil {
			if failed != nil {
				out.Send(r, token{err: failed})
			} else {
				out.Send(r, token{val: val, done: r.Clock()})
			}
		}
	}
	return failed
}
