// Fixture: under the parallel scheduler only commit sections run in
// event-key order, so the calls that create events or touch the
// contention ledger stay inside registered sections opened by
// Rank.gate, a queue send commits only in Rank.gate's flush, and every
// mutex is either commit-section state or marked order-insensitive.
package cluster

import (
	"sync"

	"repro/internal/cluster/sim"
)

type contention struct{ mu sync.Mutex }

func (ct *contention) transact() {}

type committer interface{ commit(at float64) }

type pendingSend struct {
	q  committer
	at float64
}

type Rank struct {
	t     *sim.Task
	cont  *contention
	sends []pendingSend
}

// gate is the opener: the scheduler gate, then the flush.
func (r *Rank) gate() {
	r.t.Gate()
	for _, p := range r.sends {
		p.q.commit(p.at)
	}
	r.sends = r.sends[:0]
}

type Queue struct {
	mu     sync.Mutex
	n      int
	staged []any
	recv   *sim.Task
}

// commit runs inside the flush, so its ready is in-section.
func (q *Queue) commit(at float64) {
	q.mu.Lock()
	if q.recv != nil {
		q.recv.Ready(at)
	}
	q.mu.Unlock()
}

// Send stages without a section, but may not perform the send itself.
func (q *Queue) Send(r *Rank, v any) {
	q.staged = append(q.staged, v)
	q.commit(0) // want `queue send committed outside Rank.gate's flush`
}

// Recv's fast path touches queue state before the gate: a finding
// unless allow-marked, as here.
func (q *Queue) Recv(r *Rank) any {
	//gnnvet:allow commitseam — the fixture's fast path
	q.mu.Lock()
	if q.n > 0 {
		q.n--
		q.mu.Unlock()
		return nil
	}
	q.mu.Unlock()
	r.gate()
	q.mu.Lock()
	q.recv = r.t
	q.mu.Unlock()
	r.t.Park()
	return nil
}

// peek is not a section: locking section-only state here is a finding.
func (q *Queue) peek() int {
	q.mu.Lock() // want `peek locks Queue.mu outside a commit section`
	defer q.mu.Unlock()
	return q.n
}

type Cluster struct{ mu sync.Mutex }

// markDone holds a lock across its gate: the deferred unlock runs at
// return.
func (c *Cluster) markDone(r *Rank) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.gate() // want `markDone takes a lock before its gate`
}

type Forked struct{ mu sync.Mutex }

// Join is registered as opening its own section but never gates.
func (f *Forked) Join(r *Rank) { // want `commit section Join never calls Rank.gate`
	f.mu.Lock() // want `Join locks Forked.mu outside a commit section`
	f.mu.Unlock()
}

// ChargeLink gates on the task directly, skipping the flush.
func (r *Rank) ChargeLink() {
	r.t.Gate() // want `Task.Gate outside Rank.gate skips the flush`
	r.cont.transact()
}

type Comm struct{ rv *rendezvous }

// arrive opens its section through Rank.gate before its lock.
func (c *Comm) arrive(r *Rank) {
	r.gate()
	c.rv.mu.Lock()
	c.rv.release()
	c.rv.mu.Unlock()
}

type rendezvous struct {
	mu     sync.Mutex
	parked []*sim.Task
}

// release runs inside other sections and may ready without gating.
func (rv *rendezvous) release() {
	for _, t := range rv.parked {
		t.Ready(0)
	}
}

// wake is not registered: every ordering call in it, closures
// included, is a finding.
func wake(t *sim.Task, s *sim.Sched, ct *contention) {
	t.Ready(1) // want `Task.Ready outside a registered commit section`
	func() {
		s.Spawn(0, nil) // want `Sched.Spawn outside a registered commit section`
	}()
	ct.transact() // want `contention.transact outside a registered commit section`
}

type cache struct {
	mu sync.Mutex   // want `mutex cache.mu is neither a registered commit section nor marked order-insensitive`
	rw sync.RWMutex // want `mutex cache.rw is neither`
	//gnnvet:allow commitseam — counts commute
	counts sync.Mutex
}

type embeds struct {
	sync.Mutex // want `embedded mutex in embeds`
}

var tableMu sync.Mutex // want `mutex tableMu is neither`
