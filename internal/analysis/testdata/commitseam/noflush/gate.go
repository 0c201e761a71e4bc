// Fixture: a Rank.gate that opens the section but never flushes the
// timeline's deferred queue sends.
package cluster

type waiter interface{ gate() }

type Rank struct{ w waiter }

func (r *Rank) gate() { // want `Rank.gate skips the flush`
	r.w.gate()
}
