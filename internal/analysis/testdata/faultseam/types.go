// Fixture: type stubs mirroring the real fault-seam value types in
// repro/internal/cluster (the analyzer matches named types by name, so
// the stubs carry the real names). The fixture package loads as
// repro/internal/pipeline — a package outside the seam.
package pipeline

// FaultPlan mirrors cluster.FaultPlan.
type FaultPlan struct {
	Failures []Failure
}

// Failure mirrors cluster.Failure.
type Failure struct {
	Rank int
	At   float64
}

// RankFailure mirrors cluster.RankFailure.
type RankFailure struct {
	Rank int
	At   float64
}

// CostModel carries the seam field, like cluster.CostModel.
type CostModel struct {
	Faults *FaultPlan
}

// Retire mirrors (*cluster.FaultPlan).Retire.
func (p *FaultPlan) Retire(rf *RankFailure) *FaultPlan { return p }

// Stats mirrors resilience.Stats.
type Stats struct {
	Attempts int
}

// RecordFailure mirrors (*resilience.Stats).RecordFailure.
func (s *Stats) RecordFailure(rf *RankFailure, resumeEpoch int, restoreClock float64) {}

// worker is an unrelated type that happens to have a Retire method.
type worker struct{}

func (worker) Retire(rf *RankFailure) {}
