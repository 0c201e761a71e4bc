package cluster

import "sync"

// Queue is a bounded FIFO handoff between two concurrent timelines of
// one rank (a staged pipeline's item and credit channels): buffered
// values plus the parked senders and receivers, blocking through the
// waiter seam like every other primitive. Queues carry no simulated
// time themselves — simulated backpressure is expressed by the values
// flowing through them (item completion times, credit clocks) and
// charged explicitly by the stages; the clock a peer is readied at only
// orders events.
type Queue struct {
	mu       sync.Mutex
	capacity int
	buf      []any
	sendW    []queueWaiter // parked senders, each carrying its pending value
	recvW    []waiter      // parked receivers
}

type queueWaiter struct {
	w   waiter
	val any
}

// NewQueue creates a bounded queue with the given capacity (values < 1
// are treated as 1).
func (r *Rank) NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{capacity: capacity}
}

// Prefill enqueues v before the queue is in use (initial credits); it
// must not be called once Send/Recv traffic has started and panics if
// the queue is already full.
func (q *Queue) Prefill(v any) {
	if len(q.buf) >= q.capacity {
		panic("cluster: Prefill on a full queue")
	}
	q.buf = append(q.buf, v)
}

// Send enqueues v, parking r while the queue is full.
func (q *Queue) Send(r *Rank, v any) {
	q.mu.Lock()
	if len(q.buf) < q.capacity {
		q.buf = append(q.buf, v)
		if len(q.recvW) > 0 {
			w := q.recvW[0]
			q.recvW = q.recvW[1:]
			w.ready(r.clock)
		}
		q.mu.Unlock()
		return
	}
	// Full: park with the value; the receiver that frees a slot moves
	// it into the buffer and readies us.
	q.sendW = append(q.sendW, queueWaiter{w: r.w, val: v})
	q.mu.Unlock()
	r.w.park()
}

// Recv dequeues the oldest value, parking r while the queue is empty.
func (q *Queue) Recv(r *Rank) any {
	q.mu.Lock()
	for len(q.buf) == 0 {
		q.recvW = append(q.recvW, r.w)
		q.mu.Unlock()
		r.w.park()
		q.mu.Lock()
	}
	v := q.buf[0]
	q.buf = q.buf[1:]
	if len(q.sendW) > 0 {
		s := q.sendW[0]
		q.sendW = q.sendW[1:]
		q.buf = append(q.buf, s.val)
		s.w.ready(r.clock)
	}
	q.mu.Unlock()
	return v
}

// Forked is the join handle of a stream forked with ForkStream.
type Forked struct {
	mu     sync.Mutex
	done   bool
	joiner waiter // parked in Join, readied at joinAt when the body returns
	joinAt float64
}

// ForkStream runs fn concurrently on a newly forked stream of r (see
// newStream) and returns a handle to join it. The stream is a new
// timeline of r's scheduler, started at the fork's simulated time and
// sharing the rank id for event tie-breaking.
func (r *Rank) ForkStream(name string, fn func(s *Rank)) *Forked {
	s := r.newStream(name)
	f := &Forked{}
	r.cl.sched.spawn(r.ID, s.clock, func(w waiter) {
		s.w = w
		fn(s)
		f.mu.Lock()
		f.done = true
		if f.joiner != nil {
			f.joiner.ready(f.joinAt)
		}
		f.mu.Unlock()
	})
	return f
}

// Join blocks r until the forked stream's body has returned. Join
// advances no simulated time — like joining a goroutine, it only
// synchronizes control flow; makespans aggregate through MaxClock.
func (f *Forked) Join(r *Rank) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.joiner, f.joinAt = r.w, r.clock
	f.mu.Unlock()
	r.w.park()
}
