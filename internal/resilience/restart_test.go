package resilience

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graphio"
)

// publish completes one boundary on a fresh p=1 collector whose single
// rank's clock is at, so Latest/LatestClock report (epoch, at).
func publish(t *testing.T, epoch int, at float64) *Collector {
	t.Helper()
	c := NewCollector(1)
	if err := c.AddState(epoch, 0, []float64{1}, 1, []float64{0}, []float64{0}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRank(epoch, 0, snapWithClock(at)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunWithRestarts drives the restart driver with scripted attempts
// — no cluster — and checks what each attempt and each restore callback
// was handed, and what the driver reports.
func TestRunWithRestarts(t *testing.T) {
	fail := func(rank int, at float64) error {
		// Wrapped, as a survivor's poisoned-collective abort wraps it.
		return fmt.Errorf("collective aborted: %w", &cluster.RankFailure{Rank: rank, At: at})
	}
	bug := errors.New("stage bug")
	corrupt := publish(t, 1, 2)
	corrupt.latest = []byte("not a checkpoint")

	type call struct {
		Plan       string // plan the attempt ran under, canonical form
		StartEpoch int
		Resumed    bool // a checkpoint was handed over
	}
	cases := []struct {
		name   string
		plan   *cluster.FaultPlan
		col    *Collector
		script []error // attempt i returns script[i]; past the end: success

		calls    []call
		restores []bool // per restore call: was a checkpoint handed over
		stats    *Stats
		err      error // exact error returned (nil = success)
		anyErr   bool  // some error, identity unchecked
	}{
		{name: "clean run, nothing configured",
			calls: []call{{}}},
		{name: "clean run with a collector",
			col:   NewCollector(1),
			calls: []call{{}}, stats: &Stats{Attempts: 1}},
		{name: "fault, no checkpoint: restart from scratch",
			plan: FailAt(1, 5), script: []error{fail(1, 5)},
			calls:    []call{{Plan: "1@5"}, {}},
			restores: []bool{false},
			stats: &Stats{Attempts: 2, Failures: []cluster.Failure{Failure(1, 5)},
				RestartEpochs: []int{0}, WastedSim: 5}},
		{name: "fault, published checkpoint: resume",
			plan: FailAt(0, 5), col: publish(t, 2, 3), script: []error{fail(0, 5)},
			calls:    []call{{Plan: "0@5"}, {StartEpoch: 2, Resumed: true}},
			restores: []bool{true},
			stats: &Stats{Attempts: 2, Failures: []cluster.Failure{Failure(0, 5)},
				RestartEpochs: []int{2}, WastedSim: 2}}, // 5 − restore clock 3
		{name: "two faults retire two entries",
			plan: Plan(Failure(0, 1), Failure(1, 2)), script: []error{fail(0, 1), fail(1, 2)},
			calls:    []call{{Plan: "0@1,1@2"}, {Plan: "1@2"}, {}},
			restores: []bool{false, false},
			stats: &Stats{Attempts: 3, Failures: []cluster.Failure{Failure(0, 1), Failure(1, 2)},
				RestartEpochs: []int{0, 0}, WastedSim: 3}},
		{name: "non-fault error returns at once, unwrapped",
			plan: FailAt(0, 1), script: []error{bug},
			calls: []call{{Plan: "0@1"}}, err: bug},
		{name: "checkpoint decode error propagates",
			plan: FailAt(0, 5), col: corrupt, script: []error{fail(0, 5)},
			calls: []call{{Plan: "0@5"}}, anyErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls []call
			var restores []bool
			want := &cluster.Result{SimTime: 42}
			res, stats, err := RunWithRestarts(tc.plan, tc.col,
				func(ck *graphio.Checkpoint) { restores = append(restores, ck != nil) },
				func(plan *cluster.FaultPlan, startEpoch int, ck *graphio.Checkpoint) (*cluster.Result, error) {
					i := len(calls)
					calls = append(calls, call{plan.String(), startEpoch, ck != nil})
					if ck != nil && ck.Epoch != startEpoch {
						t.Errorf("attempt %d: checkpoint of epoch %d handed over with start epoch %d", i, ck.Epoch, startEpoch)
					}
					if i < len(tc.script) {
						return nil, tc.script[i]
					}
					return want, nil
				})
			if !reflect.DeepEqual(calls, tc.calls) {
				t.Errorf("attempts saw %+v, want %+v", calls, tc.calls)
			}
			if !reflect.DeepEqual(restores, tc.restores) {
				t.Errorf("restore calls %v, want %v", restores, tc.restores)
			}
			if tc.err != nil || tc.anyErr {
				if err == nil || (tc.err != nil && err != tc.err) {
					t.Fatalf("err = %v, want %v", err, tc.err)
				}
				if res != nil || stats != nil {
					t.Errorf("failed run returned res=%v stats=%v", res, stats)
				}
				return
			}
			if err != nil || res != want {
				t.Fatalf("res, err = %v, %v; want the final attempt's result", res, err)
			}
			if !reflect.DeepEqual(stats, tc.stats) {
				t.Errorf("stats = %+v, want %+v", stats, tc.stats)
			}
		})
	}
}
