package cluster

// Barrier synchronizes all members; cost α·⌈log2 n⌉ at the worst tier.
func Barrier(c *Comm, r *Rank) {
	slots := c.exchange(r, "barrier", slot{clock: r.clock})
	c.chargeCollective(r, "barrier", maxClock(slots), barrierCost(c))
}

func barrierCost(c *Comm) collCost {
	alpha, _ := c.alphaBeta()
	return collCost{seconds: alpha * log2Ceil(c.Size())}
}
