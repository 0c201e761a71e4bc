// Package sim is the discrete-event core of the cluster simulator: a
// parallel scheduler driving one task per simulated
// rank (or rank stream) off a priority event queue, whose shared-state
// commits happen in the order a one-task-at-a-time loop would make
// them.
//
// A task runs until it blocks on a simulated synchronization point (a
// collective rendezvous, a bounded stage queue, a stream join) and
// parks; a peer readies it again with an event. A *segment* is one
// task's code from a resume to its next park or exit. Its key is the
// event's Key = (time, rank, seq): simulated seconds first, then rank
// id, then a global sequence number assigned when the event is pushed.
// The (rank, seq) tail makes ties — ubiquitous in a bulk-synchronous
// program, where every member of a collective wakes at the same
// simulated instant — deterministic.
//
// Up to W = runtime.GOMAXPROCS(0) segments run at once, each on its own
// goroutine. What a segment does to its own rank's state runs in
// parallel with the others; what it does to shared state it does inside
// a *commit section*, which it opens by calling Task.Gate. Gate returns
// once the segment's key is the minimum over the event queue and every
// popped segment, and the segment then holds the commit turn until it
// parks or exits. A segment waiting for the turn gives up its worker
// slot, so another event can be popped meanwhile. Because the turn
// passes in key order and only the turn holder may push events (Ready)
// or start tasks (Spawn), commits, Ready calls and sequence numbers
// happen exactly as in the serial loop that pops one event and runs its
// segment to the end before popping the next (W = 1 is that loop). A
// DES run is therefore a pure function of the program, never of
// goroutine scheduling, at any W. The one other place events are
// pushed is the Drain hook, which runs when no segment can.
//
// The caller's contract: a segment touches state another task can reach
// only after Gate, and holds no lock while it parks or calls Gate.
package sim

import (
	"fmt"
	"runtime"
	"sync"
)

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

// taskHeap is a binary min-heap of tasks ordered by their keys. A task
// sits in at most one heap at a time (the event queue or the popped
// segments), so one index field per task lets either heap remove it
// from the middle.
type taskHeap []*Task

func (h taskHeap) less(i, j int) bool { return h[i].key.Less(h[j].key) }

func (h taskHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h taskHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h taskHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

func (h *taskHeap) push(t *Task) {
	t.idx = len(*h)
	*h = append(*h, t)
	h.up(t.idx)
}

// remove takes t out of the heap; pop is remove of the top.
func (h *taskHeap) remove(t *Task) {
	i, last := t.idx, len(*h)-1
	if i != last {
		h.swap(i, last)
	}
	(*h)[last] = nil
	*h = (*h)[:last]
	if i != last {
		h.down(i)
		h.up(i)
	}
}

func (h *taskHeap) pop() *Task {
	t := (*h)[0]
	h.remove(t)
	return t
}

// top returns the minimum-key task, or nil when the heap is empty.
func (h taskHeap) top() *Task {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

// state is where a task is in its park/ready cycle.
type state uint8

const (
	parked  state = iota // no event: waits for a Ready
	queued               // in the event queue
	running              // popped, its segment holds a worker slot
	gated                // popped, its segment waits for the commit turn
)

// Task is one cooperative thread of simulated execution (a rank body
// or one of its forked streams).
type Task struct {
	// Rank is the simulated rank id used for event tie-breaking.
	Rank int

	s   *Sched
	key Key // the queued event's key, then the popped segment's
	idx int // position in the heap holding the task
	st  state
	// next holds a Ready that landed while the task's own segment was
	// still running (a task readying itself before it parks); Park
	// queues it.
	next    Key
	hasNext bool
	// resume carries one wake-up: the pop that starts a segment, or the
	// grant of the commit turn. Buffered, so the waker never blocks.
	resume chan struct{}
}

// Sched is the scheduler: the event queue, the popped segments and the
// commit turn. Create one per simulated run with New; it is not
// reusable.
type Sched struct {
	mu      sync.Mutex
	drained sync.Cond // Run waits here for every task to finish or wedge

	events  taskHeap // queued tasks, keyed by their next event
	segs    taskHeap // popped segments that have not parked or exited
	turn    *Task    // the segment holding the commit turn, if any
	active  int      // segments holding a worker slot
	waiting int      // segments waiting for the commit turn
	workers int
	// popping lets dispatch start segments: false before Run and while
	// the Drain hook runs.
	popping bool

	seq  uint64
	live int
	// trap records the first panic that escaped a task body (in commit
	// order); Run rethrows it on its own goroutine once no task can
	// run, so an un-recovered simulated-program panic still crashes the
	// process with its diagnostic instead of wedging the event loop.
	trap any

	// Drain, if set, is called by Run when no task can run while some
	// are live: the event queue and the popped segments are empty and
	// every live task is parked. It runs on Run's goroutine, with no
	// segment running, and may ready parked tasks (it is a commit
	// section of its own); the tasks it readies start only after it
	// returns, so it sees the whole drained state. It reports whether it
	// readied any; if not, Run panics with the deadlock.
	Drain func() bool
}

// New returns an empty scheduler that runs up to GOMAXPROCS segments
// at once.
func New() *Sched {
	s := &Sched{workers: runtime.GOMAXPROCS(0)}
	s.drained.L = &s.mu
	return s
}

// Spawn creates a parked task that will execute fn when first readied.
// Callable before Run, or by the segment holding the commit turn.
func (s *Sched) Spawn(rank int, fn func(t *Task)) *Task {
	t := &Task{Rank: rank, s: s, resume: make(chan struct{}, 1)}
	s.mu.Lock()
	s.live++
	s.mu.Unlock()
	go func() {
		<-t.resume
		defer func() {
			p := recover()
			if p != nil {
				// Record panics in commit order, so the one Run
				// rethrows does not depend on which goroutine lost the
				// race to the lock.
				t.Gate()
			}
			s.mu.Lock()
			if p != nil && s.trap == nil {
				s.trap = p
			}
			s.live--
			t.hasNext = false
			s.endLocked(t)
			s.mu.Unlock()
		}()
		fn(t)
	}()
	return t
}

// Ready schedules t to resume at simulated time tm. Callable before
// Run, by the segment holding the commit turn (a task may also ready
// itself before it parks), or by the Drain hook. Readying an
// already-queued task is a scheduling bug and panics.
func (s *Sched) Ready(t *Task, tm float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.st == queued || t.hasNext {
		panic(fmt.Sprintf("sim: task (rank %d) readied twice", t.Rank))
	}
	k := Key{Time: tm, Rank: t.Rank, Seq: s.seq}
	s.seq++
	if t.st != parked {
		t.next, t.hasNext = k, true
		return
	}
	t.key, t.st = k, queued
	s.events.push(t)
	s.dispatchLocked()
}

// Ready is Sched.Ready(t, tm) on the scheduler that spawned t.
func (t *Task) Ready(tm float64) { t.s.Ready(t, tm) }

// Gate blocks the calling task until its segment holds the commit turn:
// its key is the minimum over the event queue and every popped segment.
// The turn is held until the segment parks or exits, so a second Gate
// in one segment returns at once. While it waits the segment gives up
// its worker slot. The caller must hold no lock.
func (t *Task) Gate() {
	s := t.s
	s.mu.Lock()
	if s.turn == t {
		s.mu.Unlock()
		return
	}
	if s.turn == nil && s.segs.top() == t && !s.queuedBefore(t) {
		s.turn = t
		s.mu.Unlock()
		return
	}
	t.st = gated
	s.waiting++
	s.active--
	s.dispatchLocked()
	s.mu.Unlock()
	<-t.resume
}

// Park ends the calling task's segment and blocks until a peer readies
// it again. The caller must hold no lock: the peer that readies it may
// need it.
func (t *Task) Park() {
	s := t.s
	s.mu.Lock()
	s.endLocked(t)
	s.mu.Unlock()
	<-t.resume
}

// queuedBefore reports whether an event in the queue sorts before t's
// segment. Caller holds s.mu.
func (s *Sched) queuedBefore(t *Task) bool {
	e := s.events.top()
	return e != nil && e.key.Less(t.key)
}

// endLocked retires t's segment: it leaves the popped set, frees its
// slot and the commit turn, and queues a Ready it made on itself; then
// the turn, free slots and Run are brought up to date. Caller holds
// s.mu.
func (s *Sched) endLocked(t *Task) {
	s.segs.remove(t)
	s.active--
	if s.turn == t {
		s.turn = nil
	}
	t.st = parked
	if t.hasNext {
		t.key, t.st, t.hasNext = t.next, queued, false
		s.events.push(t)
	}
	s.grantLocked()
	s.dispatchLocked()
	if s.live == 0 || len(s.segs)+len(s.events) == 0 {
		s.drained.Signal()
	}
}

// grantLocked hands a free commit turn to the minimum popped segment if
// it is waiting for it and no queued event sorts before it. (A minimum
// segment still running takes the turn itself when it reaches Gate; a
// queued minimum is popped by dispatchLocked.) Caller holds s.mu.
func (s *Sched) grantLocked() {
	m := s.segs.top()
	if s.turn != nil || m == nil || m.st != gated || s.queuedBefore(m) {
		return
	}
	s.turn = m
	m.st = running
	s.waiting--
	s.active++
	m.resume <- struct{}{}
}

// dispatchLocked pops events into free worker slots, starting their
// segments. Caller holds s.mu.
func (s *Sched) dispatchLocked() {
	for s.popping && s.active < s.workers && len(s.events) > 0 {
		t := s.events.pop()
		t.st = running
		s.segs.push(t)
		s.active++
		t.resume <- struct{}{}
	}
}

// Load reports the events queued, the segments running and the
// segments waiting for the commit turn — part of the deadlock
// diagnostics surfaced by the cluster's poisoned-rendezvous errors.
func (s *Sched) Load() (queued, running, waiting int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events), len(s.segs) - s.waiting, s.waiting
}

// Run drives the tasks until every spawned task has finished. An empty
// queue with no segment running while tasks are live is a deadlock:
// every remaining task is parked with no event that could ever wake it.
// Run then calls the Drain hook, which may ready tasks to recover, and
// panics with the count when there is no hook or it readies nothing. A
// panic that escaped a task body is rethrown here instead, before the
// hook is consulted.
func (s *Sched) Run() {
	s.mu.Lock()
	for {
		s.popping = true
		s.dispatchLocked()
		for s.live > 0 && len(s.segs)+len(s.events) > 0 {
			s.drained.Wait()
		}
		if s.live == 0 || s.trap != nil || s.Drain == nil {
			break
		}
		s.popping = false
		s.mu.Unlock()
		readied := s.Drain()
		s.mu.Lock()
		if !readied {
			break
		}
	}
	live, trap := s.live, s.trap
	s.mu.Unlock()
	if trap != nil {
		panic(trap)
	}
	if live > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d tasks parked with no pending events", live))
	}
}
