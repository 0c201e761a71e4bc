// Package sim is the discrete-event core of the cluster simulator's
// DES backend: a single-threaded cooperative scheduler driving one
// task per simulated rank (or rank stream) off a priority event queue.
//
// Exactly one task runs at any moment. A task runs until it blocks on
// a simulated synchronization point (a collective rendezvous, a
// bounded stage queue, a stream join), parks itself, and
// hands control back to the scheduler, which pops the next event and
// resumes its task. Tasks are implemented as goroutines for their
// stacks only — the resume/yield channel handoff guarantees a single
// runnable goroutine, so scheduler and simulator state need no locks
// and the race detector sees a clean happens-before chain through the
// channels.
//
// Events are ordered by Key = (time, rank, seq): simulated seconds
// first, then rank id, then a global monotonically increasing sequence
// number assigned when the event is pushed. The (rank, seq) tail makes
// ties — ubiquitous in a bulk-synchronous program, where every member
// of a collective wakes at the same simulated instant — deterministic,
// so a DES run is a pure function of the program, never of goroutine
// scheduling.
package sim

import "fmt"

// Key orders events: simulated time, then rank, then push sequence.
type Key struct {
	Time float64
	Rank int
	Seq  uint64
}

// Less is the strict weak ordering the event queue pops in.
func (k Key) Less(o Key) bool {
	if k.Time != o.Time {
		return k.Time < o.Time
	}
	if k.Rank != o.Rank {
		return k.Rank < o.Rank
	}
	return k.Seq < o.Seq
}

// event is one queue entry: resume this task at this key.
type event struct {
	key  Key
	task *Task
}

// eventQueue is a binary min-heap of events ordered by Key.
type eventQueue struct {
	es []event
}

func (q *eventQueue) Len() int { return len(q.es) }

func (q *eventQueue) push(e event) {
	q.es = append(q.es, e)
	i := len(q.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.es[i].key.Less(q.es[p].key) {
			break
		}
		q.es[i], q.es[p] = q.es[p], q.es[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	top := q.es[0]
	last := len(q.es) - 1
	q.es[0] = q.es[last]
	q.es = q.es[:last]
	n := last
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.es[l].key.Less(q.es[min].key) {
			min = l
		}
		if r < n && q.es[r].key.Less(q.es[min].key) {
			min = r
		}
		if min == i {
			break
		}
		q.es[i], q.es[min] = q.es[min], q.es[i]
		i = min
	}
	return top
}

// Task is one cooperative thread of simulated execution (a rank body
// or one of its forked streams).
type Task struct {
	// Rank is the simulated rank id used for event tie-breaking.
	Rank int

	s      *Sched
	resume chan struct{}
	// queued guards against double-Ready: a task already holding an
	// event in the queue must not be pushed again.
	queued bool
}

// Sched is the scheduler: an event queue plus the live-task count.
// Create one per simulated run with New; it is not reusable.
type Sched struct {
	q    eventQueue
	seq  uint64
	live int
	// yield is the single-token handoff back to the Run loop; exactly
	// one task goroutine is ever unparked, so the channel never sees
	// concurrent senders.
	yield chan struct{}
	// trap records the first panic that escaped a task body; Run
	// rethrows it on the scheduler goroutine once the loop drains, so
	// an un-recovered simulated-program panic still crashes the
	// process with its diagnostic (matching the goroutine backend)
	// instead of wedging the event loop.
	trap any
}

// New returns an empty scheduler.
func New() *Sched {
	return &Sched{yield: make(chan struct{})}
}

// Spawn creates a parked task that will execute fn when first readied.
// fn runs on its own goroutine but only ever while the scheduler has
// handed it the run token.
func (s *Sched) Spawn(rank int, fn func(t *Task)) *Task {
	t := &Task{Rank: rank, s: s, resume: make(chan struct{})}
	s.live++
	go func() {
		<-t.resume
		defer func() {
			if p := recover(); p != nil && s.trap == nil {
				s.trap = p
			}
			s.live--
			s.yield <- struct{}{}
		}()
		fn(t)
	}()
	return t
}

// Ready schedules t to resume at simulated time tm. Callable from the
// scheduler's caller (before Run) or from the currently running task;
// both are single-threaded with respect to the queue. Readying an
// already-queued task is a scheduling bug and panics.
func (s *Sched) Ready(t *Task, tm float64) {
	if t.queued {
		panic(fmt.Sprintf("sim: task (rank %d) readied twice", t.Rank))
	}
	t.queued = true
	s.q.push(event{key: Key{Time: tm, Rank: t.Rank, Seq: s.seq}, task: t})
	s.seq++
}

// Ready is Sched.Ready(t, tm) on the scheduler that spawned t.
func (t *Task) Ready(tm float64) { t.s.Ready(t, tm) }

// Park blocks the calling task until a peer (or the deadlock detector)
// readies it again. The caller must not hold any lock a concurrently
// runnable task could need — under this scheduler that means no lock
// at all, since the resumed peer may be any task.
func (t *Task) Park() {
	t.s.yield <- struct{}{}
	<-t.resume
}

// Depth reports the number of queued events — part of the deadlock
// diagnostics surfaced by the cluster's poisoned-rendezvous errors.
func (s *Sched) Depth() int { return s.q.Len() }

// Run drives the event loop until every spawned task has finished.
// An empty queue with live tasks is a deadlock: every remaining task
// is parked with no event that could ever wake it, so Run panics with
// the queue/live diagnostics (the simulated program's own deadlock
// detectors usually fire first, with a richer message).
func (s *Sched) Run() {
	for s.live > 0 {
		if s.q.Len() == 0 {
			if s.trap != nil {
				panic(s.trap)
			}
			panic(fmt.Sprintf("sim: deadlock: %d tasks parked with no pending events", s.live))
		}
		e := s.q.pop()
		e.task.queued = false
		e.task.resume <- struct{}{}
		<-s.yield
	}
	if s.trap != nil {
		panic(s.trap)
	}
}
