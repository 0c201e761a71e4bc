// Fixture: stubs of the park-capable primitives the analyzer recognizes
// by name in this package path — the commit gate, a stage queue's
// receive and a collective.
package cluster

// Rank stubs a timeline; gate waits for its commit turn.
type Rank struct{}

func (r *Rank) gate() {}

// Queue stubs the stage queue.
type Queue struct{}

func (q *Queue) Recv() int { return 0 }

// AllGather stubs the collective rendezvous.
func AllGather() {}
