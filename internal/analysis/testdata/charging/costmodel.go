// Fixture: costmodel.go is on the charging path — α–β arithmetic here
// is the point and is never flagged. The type stubs mirror the real
// package's shapes (the analyzer matches by package path + type name +
// field name).
package cluster

// Link indexes the fixture's link tiers.
type Link int

// CostModel mirrors the real α–β table.
type CostModel struct {
	Alpha [2]float64
	Beta  [2]float64
}

// Topology mirrors the real fabric oversubscription knob.
type Topology struct {
	Oversub float64
}

func (m CostModel) wireTime(l Link, bytes int64) float64 {
	return m.Alpha[l] + float64(bytes)*m.Beta[l]
}
