package cluster

import (
	"sync"

	"repro/internal/cluster/sim"
)

// Queue is a bounded FIFO handoff from one timeline of a rank to
// another (a staged pipeline's item and credit channels): one sending
// timeline, one receiving timeline. Queues carry no simulated time
// themselves — simulated backpressure is expressed by the values
// flowing through them (item completion times, credit clocks) and
// charged explicitly by the stages; the clock a receiver is readied at
// only orders events.
//
// Send never blocks. Its user keeps the queue within capacity — the
// engine's credit protocol does: a producer sends only after taking a
// credit, and a consumer returns the credit after dequeuing — so
// capacity is an asserted bound, not a wait. A send is staged on the
// sending timeline and committed at that timeline's next commit
// section (Rank.gate); only then can the receiver see it. Recv takes a
// committed value without a commit section, and only an empty queue
// parks its receiver until a commit hands it the next value.
type Queue[T any] struct {
	// staged holds the values sent but not yet committed, in send
	// order. Only the sending timeline touches it.
	staged []T

	mu      sync.Mutex
	ring    []T // committed values: n of them from head, wrapping
	head, n int
	recv    *sim.Task // the parked receiver, or nil
}

// NewQueue creates a bounded queue with the given capacity (values < 1
// are treated as 1).
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{ring: make([]T, max(capacity, 1))}
}

// Prefill enqueues v before the queue is in use (initial credits).
func (q *Queue[T]) Prefill(v T) { q.push(v) }

// push appends v to the committed values. Caller holds q.mu, or the
// queue is not in use yet.
func (q *Queue[T]) push(v T) {
	if q.n == len(q.ring) {
		panic("cluster: send on a full queue: the credit protocol bounds every queue (a producer sends only after taking a credit, a consumer returns it after dequeuing)")
	}
	q.ring[(q.head+q.n)%len(q.ring)] = v
	q.n++
}

// Send enqueues v without blocking. The send commits at r's next
// commit section, stamped with r's clock now.
func (q *Queue[T]) Send(r *Rank, v T) {
	q.staged = append(q.staged, v)
	r.sends = append(r.sends, pendingSend{q, r.clock})
}

// commit performs the oldest staged send: it appends the value to the
// committed ones and readies a parked receiver at the send's clock.
// Only the sender's Rank.gate calls it, inside the commit section it
// opens.
func (q *Queue[T]) commit(at float64) {
	v := q.staged[0]
	n := copy(q.staged, q.staged[1:])
	clear(q.staged[n:])
	q.staged = q.staged[:n]
	q.mu.Lock()
	q.push(v)
	if t := q.recv; t != nil {
		q.recv = nil
		t.Ready(at)
	}
	q.mu.Unlock()
}

// Recv dequeues the oldest value, parking r while the queue is empty.
// A non-empty queue needs no commit section: a value is committed only
// inside one, so it precedes the receiver in event-key order, and the
// one operation that can race the receiver — a commit at the tail —
// commutes with taking the head. An empty queue opens a section, so
// every send ordered before r has committed, and re-checks; a receiver
// still facing an empty queue parks, and the commit that wakes it has
// left its value at the head, so it takes it without gating again.
func (q *Queue[T]) Recv(r *Rank) T {
	//gnnvet:allow commitseam — the non-empty fast path takes a committed value, which precedes the receiver in event-key order; a commit at the tail commutes with taking the head
	q.mu.Lock()
	if q.n == 0 {
		q.mu.Unlock()
		r.gate()
		q.mu.Lock()
		if q.n == 0 {
			q.recv = r.t
			q.mu.Unlock()
			r.park("Queue.Recv", nil)
			q.mu.Lock()
		}
	}
	v := q.ring[q.head]
	q.ring[q.head] = *new(T)
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	q.mu.Unlock()
	return v
}

// Forked is the join handle of a stream forked with ForkStream.
type Forked struct {
	mu     sync.Mutex
	done   bool
	joiner *sim.Task // parked in Join, readied at joinAt when the body returns
	joinAt float64
}

// ForkStream runs fn concurrently on a newly forked stream of r (see
// newStream) and returns a handle to join it. The stream is a new
// timeline of r's scheduler, started at the fork's simulated time and
// sharing the rank id for event tie-breaking.
func (r *Rank) ForkStream(name string, fn func(s *Rank)) *Forked {
	r.gate()
	s := r.newStream(name)
	f := &Forked{}
	r.cl.spawn(s, func() {
		fn(s)
		s.gate()
		f.mu.Lock()
		f.done = true
		if f.joiner != nil {
			f.joiner.Ready(f.joinAt)
		}
		f.mu.Unlock()
	})
	return f
}

// Join blocks r until the forked stream's body has returned. Join
// advances no simulated time — like joining a goroutine, it only
// synchronizes control flow; makespans aggregate through MaxClock.
func (f *Forked) Join(r *Rank) {
	r.gate()
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.joiner, f.joinAt = r.t, r.clock
	f.mu.Unlock()
	r.park("Join", nil)
}
