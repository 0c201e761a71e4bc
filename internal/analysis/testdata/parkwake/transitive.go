// Fixture: the facts layer sees through helpers — a naked block or a
// park-capable call one level down is as fatal to the scheduler as an
// inline one.
package cluster

import "sync"

// blockingHelper holds the atom: flagged here, and its summary taints
// every caller.
func blockingHelper(ch chan int) int {
	return <-ch // want `naked channel receive`
}

// callsBlockingHelper has no channel in sight, yet hangs the
// simulation just the same.
func callsBlockingHelper(ch chan int) int {
	return blockingHelper(ch) // want `call blocks outside the scheduler: cluster\.blockingHelper → channel receive`
}

// rendezvous reaches the collective park one call down.
func rendezvous() { AllGather() }

type cache struct{ mu sync.Mutex }

// lockedTransitivePark is the pattern the per-function analyzer
// missed: no park call in sight while the mutex is held, but the
// helper reaches one.
func (c *cache) lockedTransitivePark() {
	c.mu.Lock()
	rendezvous() // want `cluster\.rendezvous \(→ AllGather\) may park the rank while c\.mu is locked`
	c.mu.Unlock()
}

// unlockedTransitivePark is clean: parking without a lock held is the
// design, however many calls deep.
func unlockedTransitivePark() { rendezvous() }

// auditedTransitive audits the native block at the call site — the
// finding is suppressed and the taint stops here, so callers of this
// wrapper stay clean.
func auditedTransitive(ch chan int) int {
	//gnnvet:allow parkwake — fixture: audited native block below the simulated clock
	return blockingHelper(ch)
}

func callsAuditedTransitive(ch chan int) int { return auditedTransitive(ch) }
