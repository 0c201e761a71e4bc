// Fixture: every file off the charging path must call a charging
// helper rather than inline α–β math.
package cluster

func inlinedCharge(m CostModel, l Link, bytes int64) float64 {
	return m.Alpha[l] + float64(bytes)*m.Beta[l] // want `CostModel\.Alpha may be priced only` `CostModel\.Beta may be priced only`
}

func bandwidthMath(t *Topology, bps float64) float64 {
	return bps / t.Oversub // want `Topology\.Oversub may be priced only`
}

func negated(m CostModel, l Link) float64 {
	return -m.Beta[l] // want `CostModel\.Beta may be priced only`
}

// A plain read or copy is not arithmetic.
func plainRead(m CostModel, l Link) float64 { return m.Alpha[l] }

func passAlong(t Topology) float64 { return t.Oversub }

// auditedSite shows the escape hatch.
func auditedSite(m CostModel, l Link) float64 {
	//gnnvet:allow charging — fixture: audited inline cost math
	return m.Alpha[l] * 2
}
