// Fixture: under the parallel DES backend only commit sections run in
// event-key order, so the calls that create events or touch the
// contention ledger stay inside registered sections, and every mutex is
// either commit-section state or marked order-insensitive.
package cluster

import "sync"

type waiter interface {
	gate()
	park()
	ready(at float64)
}

type scheduler interface {
	spawn(rank int, at float64, fn func(waiter))
}

type contention struct{ mu sync.Mutex }

func (ct *contention) transact() {}

type Rank struct {
	w    waiter
	cont *contention
}

type Queue struct {
	mu    sync.Mutex
	recvW []waiter
}

// Send is registered and opens its section before its lock.
func (q *Queue) Send(r *Rank, v any) {
	r.w.gate()
	q.mu.Lock()
	q.recvW[0].ready(0)
	q.mu.Unlock()
}

// Recv is registered but takes its lock before the gate.
func (q *Queue) Recv(r *Rank) any {
	q.mu.Lock()
	r.w.gate() // want `Recv takes a lock before its gate`
	q.mu.Unlock()
	return nil
}

type Forked struct{ mu sync.Mutex }

// Join is registered as opening its own section but never gates.
func (f *Forked) Join(r *Rank) { // want `commit section Join never calls waiter.gate`
	f.mu.Lock()
	f.mu.Unlock()
}

// ChargeLink is registered; the ledger call inside it is confined.
func (r *Rank) ChargeLink() {
	r.w.gate()
	r.cont.transact()
}

type rendezvous struct {
	mu     sync.Mutex
	parked []waiter
}

// release runs inside other sections and may ready without gating.
func (rv *rendezvous) release() {
	for _, w := range rv.parked {
		w.ready(0)
	}
}

// wake is not registered: every ordering call in it, closures
// included, is a finding.
func wake(w waiter, s scheduler, ct *contention) {
	w.ready(1) // want `waiter.ready outside a registered commit section`
	func() {
		s.spawn(0, 0, nil) // want `scheduler.spawn outside a registered commit section`
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
