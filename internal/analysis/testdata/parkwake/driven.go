// Fixture: cluster-driven code runs on rank timelines; a task runs only
// when the scheduler resumes it, so any block that bypasses the
// scheduler's park/wake hangs the simulation.
package cluster

import (
	"sync"
	"time"
)

func nakedChannel(ch chan int) int {
	ch <- 1     // want `naked channel send`
	return <-ch // want `naked channel receive`
}

func rawSpawn() {
	go func() {}() // want `raw goroutine spawn`
}

func waitGroupJoin(wg *sync.WaitGroup) {
	wg.Wait() // want `sync\.WaitGroup\.Wait blocks outside the scheduler`
}

func osSleep() {
	time.Sleep(time.Microsecond) // want `time\.Sleep blocks the OS thread`
}

func selectWait(ch chan int) {
	select { // want `select blocks outside the scheduler`
	case <-ch: // want `naked channel receive`
	}
}

func drain(ch chan int) int {
	n := 0
	for v := range ch { // want `ranging over a channel`
		n += v
	}
	return n
}

type registry struct {
	mu sync.Mutex
	q  Queue
}

func (g *registry) lockedPark() int {
	g.mu.Lock()
	v := g.q.Recv() // want `Recv may park the rank while g\.mu is locked:`
	g.mu.Unlock()
	return v
}

func (g *registry) deferredPark() {
	g.mu.Lock()
	defer g.mu.Unlock()
	// The lexical tracker sees both the outstanding Lock and the
	// deferred Unlock, so the park site reports twice.
	AllGather() // want `AllGather may park the rank while g\.mu is locked:` `deferred Unlock holds it to return`
}

func (g *registry) unlockThenPark() int {
	g.mu.Lock()
	g.mu.Unlock()
	return g.q.Recv() // lock released before blocking: fine
}

// A commit section opens with the gate before its own mutex: waiting
// for the turn holding the lock would block the turn holder on it.
type gate struct {
	mu   sync.Mutex
	open bool
}

func (g *gate) lockedGate(r *Rank) {
	g.mu.Lock()
	r.gate() // want `gate may park the rank while g\.mu is locked:`
	g.mu.Unlock()
}

func (g *gate) gateThenLock(r *Rank) {
	r.gate()
	g.mu.Lock()
	g.open = true
	g.mu.Unlock()
}

// auditedJoin shows the escape hatch for driver-level code that runs
// outside simulated time.
func auditedJoin(wg *sync.WaitGroup) {
	//gnnvet:allow parkwake — fixture: driver-level join below the simulated clock
	wg.Wait()
}
