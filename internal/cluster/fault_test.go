package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan *FaultPlan
		n    int
		ok   bool
	}{
		{"nil plan", nil, 8, true},
		{"empty plan", &FaultPlan{}, 8, true},
		{"single", &FaultPlan{Failures: []Failure{{Rank: 3, At: 0.5}}}, 8, true},
		{"range unchecked when n<=0", &FaultPlan{Failures: []Failure{{Rank: 99, At: 1}}}, 0, true},
		{"negative rank", &FaultPlan{Failures: []Failure{{Rank: -1, At: 1}}}, 8, false},
		{"rank out of range", &FaultPlan{Failures: []Failure{{Rank: 8, At: 1}}}, 8, false},
		{"zero time", &FaultPlan{Failures: []Failure{{Rank: 0, At: 0}}}, 8, false},
		{"negative time", &FaultPlan{Failures: []Failure{{Rank: 0, At: -1}}}, 8, false},
		{"NaN time", &FaultPlan{Failures: []Failure{{Rank: 0, At: nan()}}}, 8, false},
		{"Inf time", &FaultPlan{Failures: []Failure{{Rank: 0, At: inf()}}}, 8, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

func TestFaultPlanRetire(t *testing.T) {
	p := &FaultPlan{Failures: []Failure{{Rank: 1, At: 2}, {Rank: 0, At: 1}, {Rank: 1, At: 2}}}
	p2 := p.Retire(&RankFailure{Rank: 1, At: 2})
	if len(p2.Failures) != 2 {
		t.Fatalf("Retire removed %d entries, want exactly 1 (len %d)", len(p.Failures)-len(p2.Failures), len(p2.Failures))
	}
	if got := p2.String(); got != "0@1,1@2" {
		t.Fatalf("plan after Retire = %q, want %q", got, "0@1,1@2")
	}
	p3 := p2.Retire(&RankFailure{Rank: 1, At: 2}).Retire(&RankFailure{Rank: 0, At: 1})
	if p3 != nil {
		t.Fatalf("emptied plan = %v, want nil", p3)
	}
	if (*FaultPlan)(nil).Retire(&RankFailure{Rank: 0, At: 1}) != nil {
		t.Fatal("nil plan Retire != nil")
	}
	// Retire never mutates the receiver (restart drivers share plans).
	if len(p.Failures) != 3 {
		t.Fatalf("Retire mutated receiver: len %d", len(p.Failures))
	}
}

func TestFaultPlanString(t *testing.T) {
	if got := (*FaultPlan)(nil).String(); got != "" {
		t.Fatalf("nil plan String = %q", got)
	}
	p := &FaultPlan{Failures: []Failure{{Rank: 2, At: 0.5}, {Rank: 0, At: 0.25}, {Rank: 1, At: 0.25}}}
	if got, want := p.String(), "0@0.25,1@0.25,2@0.5"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// TestRankFailureStopsAtPlannedTime pins the fail-stop trigger: the
// rank halts at the first charge boundary at or after the planned
// time, Run surfaces the planned failure, and survivors complete their
// accounting normally up to the abort.
func TestRankFailureStopsAtPlannedTime(t *testing.T) {
	m := testModel()
	m.Faults = &FaultPlan{Failures: []Failure{{Rank: 1, At: 1e-9}}}
	cl := New(4, m)
	_, err := cl.Run(func(r *Rank) error {
		r.SetPhase("work")
		r.Charge(Work{DenseFlops: 1 << 20}) // every rank's clock crosses 1e-9s here
		return nil
	})
	if err == nil {
		t.Fatal("Run succeeded despite planned failure")
	}
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("error %v does not wrap ErrRankFailed", err)
	}
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("error %v is not a RankFailure", err)
	}
	if rf.Rank != 1 || rf.At != 1e-9 {
		t.Fatalf("failure = rank %d at %v, want rank 1 at 1e-9", rf.Rank, rf.At)
	}
}

// TestNilFaultPlanInert pins that a nil plan injects nothing.
func TestNilFaultPlanInert(t *testing.T) {
	cl := New(2, testModel())
	if _, err := cl.Run(func(r *Rank) error {
		r.SetPhase("work")
		r.Charge(Work{DenseFlops: 1 << 30})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// abortProbe runs body-level collectives on a p-rank cluster where
// rank dead dies before joining, and returns Run's error plus each
// surviving rank's observed abort error.
func abortProbe(t *testing.T, p, dead int, collectives Collectives,
	op func(c *Comm, r *Rank)) (runErr error, rankErrs []error) {
	t.Helper()
	m := testModel()
	m.Collectives = collectives
	m.Faults = &FaultPlan{Failures: []Failure{{Rank: dead, At: 1e-9}}}
	cl := New(p, m)
	world := cl.World()
	rankErrs = make([]error, p)
	runErr = func() error {
		_, err := cl.Run(func(r *Rank) error {
			r.SetPhase("work")
			r.Charge(Work{DenseFlops: 1 << 20}) // the dead rank halts here
			err := func() (err error) {
				defer func() {
					if pv := recover(); pv != nil {
						if e, ok := pv.(error); ok && errors.Is(e, ErrRankFailed) {
							err = e
							return
						}
						panic(pv)
					}
				}()
				op(world, r)
				return nil
			}()
			rankErrs[r.ID] = err
			return err
		})
		return err
	}()
	return runErr, rankErrs
}

// TestCollectiveAbortOnRankFailure is the abort-path golden suite:
// every collective, at every worker count, must observe a clean recoverable abort naming the failed rank — never
// a hang and never a bug-class panic — when a member dies before
// joining.
func TestCollectiveAbortOnRankFailure(t *testing.T) {
	// check probes op on p ranks with rank dead failing; want, if set,
	// holds a fragment of each survivor's abort message.
	check := func(t *testing.T, p, dead int, coll Collectives, op func(c *Comm, r *Rank), want map[int]string) {
		runErr, rankErrs := abortProbe(t, p, dead, coll, op)
		if runErr == nil {
			t.Fatal("Run succeeded despite failed member")
		}
		if !errors.Is(runErr, ErrRankFailed) {
			t.Fatalf("Run error %v does not wrap ErrRankFailed", runErr)
		}
		var rf *RankFailure
		if !errors.As(runErr, &rf) || rf.Rank != dead {
			t.Fatalf("Run error %v does not surface the rank-%d failure", runErr, dead)
		}
		for id, err := range rankErrs {
			if id == dead {
				// The failed rank died in the charge, before op.
				continue
			}
			if err == nil {
				t.Fatalf("surviving rank %d completed the collective", id)
			}
			if !errors.Is(err, ErrRankFailed) {
				t.Fatalf("rank %d abort %v does not wrap ErrRankFailed", id, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("rank %d", dead)) || !strings.Contains(err.Error(), "fail-stop") {
				t.Fatalf("rank %d abort %q lacks the failed-rank diagnostic", id, err)
			}
			if w := want[id]; !strings.Contains(err.Error(), w) {
				t.Fatalf("rank %d abort %q, want it to say %q", id, err, w)
			}
		}
	}
	ops := []struct {
		name string
		coll Collectives
		op   func(c *Comm, r *Rank)
	}{
		{"barrier", Collectives{}, func(c *Comm, r *Rank) { Barrier(c, r) }},
		{"broadcast", Collectives{}, func(c *Comm, r *Rank) { Broadcast(c, r, 0, r.ID, 8) }},
		{"allgather", Collectives{}, func(c *Comm, r *Rank) { AllGather(c, r, r.ID, 8) }},
		{"gather", Collectives{}, func(c *Comm, r *Rank) { Gather(c, r, 0, r.ID, 8) }},
		{"scatter", Collectives{}, func(c *Comm, r *Rank) {
			parts := []int{0, 1, 2, 3}
			Scatter(c, r, 0, parts, func(int) int { return 8 })
		}},
		{"alltoallv-flat", Collectives{}, func(c *Comm, r *Rank) {
			AllToAllv(c, r, []int{0, 1, 2, 3}, func(int) int { return 8 })
		}},
		{"alltoallv-pairwise", Collectives{AllToAll: Pairwise}, func(c *Comm, r *Rank) {
			AllToAllv(c, r, []int{0, 1, 2, 3}, func(int) int { return 8 })
		}},
		{"allreduce-flat", Collectives{}, func(c *Comm, r *Rank) {
			AllReduceSum(c, r, []float64{1, 2})
		}},
		{"allreduce-ring", Collectives{AllReduce: Ring}, func(c *Comm, r *Rank) {
			AllReduceSum(c, r, []float64{1, 2})
		}},
		{"allreduce-hier", Collectives{AllReduce: Hierarchical}, func(c *Comm, r *Rank) {
			AllReduceSum(c, r, []float64{1, 2})
		}},
		{"allreduce-apply", Collectives{}, func(c *Comm, r *Rank) {
			AllReduceSumApply(c, r, []float64{1, 2}, func([]float64) {})
		}},
		// The generic fold always runs flat; Ring changes only its charge.
		{"allreduce-generic", Collectives{AllReduce: Ring}, func(c *Comm, r *Rank) {
			AllReduceGeneric(c, r, r.ID, 8, func([]int) {})
		}},
		// A fold that writes into storage the members share.
		{"allreduce-generic-into", Collectives{}, func(c *Comm, r *Rank) {
			shared := make([]int, 1)
			AllReduceGeneric(c, r, r.ID, 8, func(vals []int) { shared[0] = len(vals) })
		}},
	}
	for _, tc := range ops {
		// The second level names the scheduler by its Backend number.
		t.Run(fmt.Sprintf("%s/backend-%d", tc.name, DESBackend), func(t *testing.T) {
			atWorkers(t, func(t *testing.T) float64 {
				check(t, 4, 1, tc.coll, tc.op, nil)
				return 0
			})
		})
	}
	// On two nodes of four the hierarchical all-reduce aborts in
	// cascades: a node leader aborting in the leaders' stage strands its
	// node's closing broadcast.
	cascades := []struct {
		name string
		dead int
		want map[int]string
	}{
		{"allreduce-hier-p8-leader", 4, map[int]string{
			0: "rank 4 died before joining allreduce",
			1: "rank 0 aborted before joining broadcast",
			2: "rank 0 aborted before joining broadcast",
			3: "rank 0 aborted before joining broadcast",
			5: "rank 4 died before joining allreduce",
			6: "rank 4 died before joining allreduce",
			7: "rank 4 died before joining allreduce",
		}},
		{"allreduce-hier-p8-nonleader", 5, map[int]string{
			0: "rank 4 aborted before joining allreduce",
			1: "rank 0 aborted before joining broadcast",
			2: "rank 0 aborted before joining broadcast",
			3: "rank 0 aborted before joining broadcast",
			4: "rank 5 died before joining allreduce",
			6: "rank 5 died before joining allreduce",
			7: "rank 5 died before joining allreduce",
		}},
		{"allreduce-hier-p8-rank0", 0, map[int]string{
			1: "rank 0 died before joining allreduce",
			2: "rank 0 died before joining allreduce",
			3: "rank 0 died before joining allreduce",
			4: "rank 0 died before joining allreduce",
			5: "rank 4 aborted before joining broadcast",
			6: "rank 4 aborted before joining broadcast",
			7: "rank 4 aborted before joining broadcast",
		}},
	}
	hier := Collectives{AllReduce: Hierarchical}
	for _, tc := range cascades {
		t.Run(fmt.Sprintf("%s/backend-%d", tc.name, DESBackend), func(t *testing.T) {
			atWorkers(t, func(t *testing.T) float64 {
				check(t, 8, tc.dead, hier, func(c *Comm, r *Rank) { AllReduceSum(c, r, []float64{1, 2}) }, tc.want)
				return 0
			})
		})
	}
}

// TestBugClassPanicStillCrashes pins the fault/bug separation: a
// non-fault panic in a rank body is not converted into an error. The
// scheduler re-raises a trapped task panic on the caller's goroutine,
// which is where this test can observe it.
func TestBugClassPanicStillCrashes(t *testing.T) {
	cl := New(1, testModel())
	defer func() {
		if recover() == nil {
			t.Fatal("bug-class panic was swallowed")
		}
	}()
	_, _ = cl.Run(func(r *Rank) error {
		panic("genuine bug")
	})
}

// TestSnapshotRestoreRoundTrip pins accounting restore: run a cluster,
// snapshot each rank, restore into a fresh run that does nothing, and
// check folded stats carry over exactly.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := testModel()
	cl := New(2, m)
	world := cl.World()
	snaps := make([]RankSnapshot, 2)
	res1, err := cl.Run(func(r *Rank) error {
		r.SetPhase("alpha")
		r.Charge(Work{DenseFlops: 1 << 20})
		r.SetPhase("beta")
		r.ChargeLink(HostLink, 1<<16)
		AllReduceSum(world, r, []float64{float64(r.ID)})
		snaps[r.ID] = r.Snapshot()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cl2 := New(2, m)
	res2, err := cl2.Run(func(r *Rank) error {
		r.Restore(snaps[r.ID])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.SimTime != res2.SimTime {
		t.Fatalf("restored SimTime %v != original %v", res2.SimTime, res1.SimTime)
	}
	for _, phase := range []string{"alpha", "beta"} {
		if res1.Phase(phase) != res2.Phase(phase) {
			t.Fatalf("restored phase %q = %v, want %v", phase, res2.Phase(phase), res1.Phase(phase))
		}
		if res1.PhaseComm(phase) != res2.PhaseComm(phase) {
			t.Fatalf("restored comm %q = %v, want %v", phase, res2.PhaseComm(phase), res1.PhaseComm(phase))
		}
	}
}
