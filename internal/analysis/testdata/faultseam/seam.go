// Fixture: fault-injection plan construction outside the seam
// packages. Hand-rolled FaultPlan/Failure literals bypass Validate and
// the sweep conventions; a synthesized RankFailure forges the recovery
// contract's root-cause error. Passing plans along (field reads,
// assignments of existing values) is fine — only construction is
// confined.
package pipeline

func handRolledPlan() *FaultPlan {
	return &FaultPlan{ // want `fault-injection value FaultPlan constructed outside the FaultPlan seam: build plans with resilience\.FailAt / resilience\.Plan / resilience\.RandomPlan \(or cliutil\.ParseFaults for flag input\)`
		Failures: []Failure{{Rank: 1, At: 0.5}}, // want `fault-injection value Failure constructed outside the FaultPlan seam: build entries with resilience\.Failure`
	}
}

func forgedFailure() *RankFailure {
	return &RankFailure{Rank: 0, At: 1} // want `fault-injection value RankFailure constructed outside the FaultPlan seam: RankFailure is produced by the cluster's fail-stop machinery only; synthesizing one forges the recovery contract's root-cause error`
}

func valueForm() Failure {
	return Failure{Rank: 2, At: 1.5} // want `fault-injection value Failure constructed outside the FaultPlan seam: build entries with resilience\.Failure`
}

// passingThrough moves an existing plan between models without
// constructing anything: the seam's intended use.
func passingThrough(m *CostModel, plan *FaultPlan) {
	m.Faults = plan
}

// secondRestartLoop is the shape the analyzer keeps from growing back:
// a driver retiring the fired entry and logging the failure itself
// instead of recovering through resilience.RunWithRestarts.
func secondRestartLoop(plan *FaultPlan, rec *Stats, rf *RankFailure) *FaultPlan {
	plan = plan.Retire(rf)      // want `restart bookkeeping FaultPlan\.Retire called outside the restart driver: recover through resilience\.RunWithRestarts instead of a second restart loop`
	rec.RecordFailure(rf, 0, 0) // want `restart bookkeeping Stats\.RecordFailure called outside the restart driver: recover through resilience\.RunWithRestarts instead of a second restart loop`
	return plan
}

// otherRetire has the method's name on an unrelated receiver: only the
// seam's own types are confined.
func otherRetire(w worker) { w.Retire(nil) }

// zeroModel constructs an unrelated literal; only the three seam types
// are confined.
func zeroModel() CostModel {
	return CostModel{}
}

// audited shows the escape hatch.
func audited() *FaultPlan {
	//gnnvet:allow faultseam — fixture: audited hand-rolled plan
	return &FaultPlan{}
}
