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

func TestFaultPlanWithout(t *testing.T) {
	p := &FaultPlan{Failures: []Failure{{Rank: 1, At: 2}, {Rank: 0, At: 1}, {Rank: 1, At: 2}}}
	p2 := p.Without(Failure{Rank: 1, At: 2})
	if p2.Len() != 2 {
		t.Fatalf("Without removed %d entries, want exactly 1 (len %d)", p.Len()-p2.Len(), p2.Len())
	}
	if got := p2.String(); got != "0@1,1@2" {
		t.Fatalf("plan after Without = %q, want %q", got, "0@1,1@2")
	}
	p3 := p2.Without(Failure{Rank: 1, At: 2}).Without(Failure{Rank: 0, At: 1})
	if p3 != nil {
		t.Fatalf("emptied plan = %v, want nil", p3)
	}
	if (*FaultPlan)(nil).Without(Failure{Rank: 0, At: 1}) != nil {
		t.Fatal("nil plan Without != nil")
	}
	// Without never mutates the receiver (restart drivers share plans).
	if p.Len() != 3 {
		t.Fatalf("Without mutated receiver: len %d", p.Len())
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
	for _, backend := range []Backend{GoroutineBackend, DESBackend} {
		m := testModel()
		m.Backend = backend
		m.Faults = &FaultPlan{Failures: []Failure{{Rank: 1, At: 1e-9}}}
		cl := New(4, m)
		_, err := cl.Run(func(r *Rank) error {
			r.SetPhase("work")
			r.ChargeDense(1 << 20) // every rank's clock crosses 1e-9s here
			return nil
		})
		if err == nil {
			t.Fatalf("backend %v: Run succeeded despite planned failure", backend)
		}
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("backend %v: error %v does not wrap ErrRankFailed", backend, err)
		}
		var rf *RankFailure
		if !errors.As(err, &rf) {
			t.Fatalf("backend %v: error %v is not a RankFailure", backend, err)
		}
		if rf.Rank != 1 || rf.At != 1e-9 {
			t.Fatalf("backend %v: failure = rank %d at %v, want rank 1 at 1e-9", backend, rf.Rank, rf.At)
		}
	}
}

// TestNilFaultPlanInert pins that a nil plan injects nothing.
func TestNilFaultPlanInert(t *testing.T) {
	cl := New(2, testModel())
	if _, err := cl.Run(func(r *Rank) error {
		r.SetPhase("work")
		r.ChargeDense(1 << 30)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// abortProbe runs body-level collectives on a 4-rank cluster where
// rank 1 dies before joining, and returns Run's error plus each
// surviving rank's observed abort error.
func abortProbe(t *testing.T, backend Backend, collectives Collectives,
	op func(c *Comm, r *Rank)) (runErr error, rankErrs []error) {
	t.Helper()
	const p = 4
	m := testModel()
	m.Backend = backend
	m.Collectives = collectives
	m.Faults = &FaultPlan{Failures: []Failure{{Rank: 1, At: 1e-9}}}
	cl := New(p, m)
	world := cl.World()
	rankErrs = make([]error, p)
	runErr = func() error {
		_, err := cl.Run(func(r *Rank) error {
			r.SetPhase("work")
			r.ChargeDense(1 << 20) // rank 1 halts here
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
// every collective, on both backends, must observe a clean recoverable
// abort naming the failed rank — never a hang and never a bug-class
// panic — when a member dies before joining.
func TestCollectiveAbortOnRankFailure(t *testing.T) {
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
			AllReduceGenericInto(c, r, r.ID, 8, new(int), func(vals []int, dests []*int) {})
		}},
		{"allreduce-generic-into", Collectives{}, func(c *Comm, r *Rank) {
			dest := make([]int, 1)
			AllReduceGenericInto(c, r, r.ID, 8, dest, func(vals []int, dests [][]int) {})
		}},
	}
	for _, backend := range []Backend{GoroutineBackend, DESBackend} {
		for _, tc := range ops {
			t.Run(fmt.Sprintf("%s/backend-%d", tc.name, backend), func(t *testing.T) {
				runErr, rankErrs := abortProbe(t, backend, tc.coll, tc.op)
				if runErr == nil {
					t.Fatal("Run succeeded despite failed member")
				}
				if !errors.Is(runErr, ErrRankFailed) {
					t.Fatalf("Run error %v does not wrap ErrRankFailed", runErr)
				}
				var rf *RankFailure
				if !errors.As(runErr, &rf) || rf.Rank != 1 {
					t.Fatalf("Run error %v does not surface the rank-1 failure", runErr)
				}
				for id, err := range rankErrs {
					if id == 1 {
						// The failed rank died in the charge, before op.
						continue
					}
					if err == nil {
						t.Fatalf("surviving rank %d completed the collective", id)
					}
					if !errors.Is(err, ErrRankFailed) {
						t.Fatalf("rank %d abort %v does not wrap ErrRankFailed", id, err)
					}
					if !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "fail-stop") {
						t.Fatalf("rank %d abort %q lacks the failed-rank diagnostic", id, err)
					}
				}
			})
		}
	}
}

// TestBugClassPanicStillCrashes pins the fault/bug separation: a
// non-fault panic in a rank body is not converted into an error. The
// DES backend re-raises a trapped task panic on the caller's
// goroutine, which is where this test can observe it (the goroutine
// backend would crash the whole process, by design).
func TestBugClassPanicStillCrashes(t *testing.T) {
	m := testModel()
	m.Backend = DESBackend
	cl := New(1, m)
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
		r.ChargeDense(1 << 20)
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
