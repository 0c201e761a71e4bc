package cluster

// Barrier synchronizes all members; cost α·⌈log2 n⌉ at the worst tier.
func Barrier(c *Comm, r *Rank) {
	entry := c.exchangeTransform(r, "barrier", r.clock, nil, nil, false)
	c.chargeCollective(r, "barrier", entry, barrierCost(c))
}

func barrierCost(c *Comm) collCost {
	alpha, _ := c.alphaBeta()
	return collCost{seconds: alpha * log2Ceil(c.Size())}
}
