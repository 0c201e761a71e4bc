// Fixture: a Rank.gate that opens the section but never flushes the
// timeline's deferred queue sends.
package cluster

import "repro/internal/cluster/sim"

type Rank struct{ t *sim.Task }

func (r *Rank) gate() { // want `Rank.gate skips the flush`
	r.t.Gate()
}
