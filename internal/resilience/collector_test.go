package resilience

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

func snapWithClock(t float64) cluster.RankSnapshot {
	return cluster.RankSnapshot{
		Phases: []string{"work"},
		Ops:    map[string]cluster.OpTally{},
		Main:   cluster.StreamSnapshot{Clock: t, Phases: []cluster.PhaseAcc{{Seconds: t, Touched: true}}},
	}
}

func TestCollectorPublishesCompleteBoundary(t *testing.T) {
	c := NewCollector(2)
	if ck, err := c.Latest(); err != nil || ck != nil {
		t.Fatalf("fresh collector Latest = %v, %v, want nil, nil", ck, err)
	}
	if err := c.AddRank(1, 0, snapWithClock(1.5)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddState(1, []float64{1, 2}, 3, []float64{0.1}, []float64{0.2}); err != nil {
		t.Fatal(err)
	}
	// Boundary incomplete: rank 1 has not contributed.
	if ck, err := c.Latest(); err != nil || ck != nil {
		t.Fatalf("incomplete boundary published: %v, %v", ck, err)
	}
	if err := c.AddRank(1, 1, snapWithClock(2.5)); err != nil {
		t.Fatal(err)
	}
	ck, err := c.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Epoch != 1 || ck.OptT != 3 || len(ck.Ranks) != 2 {
		t.Fatalf("published checkpoint %+v is wrong", ck)
	}
	if got := c.LatestClock(); got != 2.5 {
		t.Fatalf("LatestClock = %v, want the max rank clock 2.5", got)
	}
	// Each Latest call decodes afresh: mutating one returned value must
	// not leak into the next.
	ck.Params[0] = 99
	ck2, err := c.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Params[0] != 1 {
		t.Fatal("Latest returned a shared decoded value, not a fresh decode")
	}
}

func TestCollectorRejectsDuplicatesAndOverlap(t *testing.T) {
	c := NewCollector(2)
	if err := c.AddRank(1, 0, snapWithClock(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRank(1, 0, snapWithClock(1)); err == nil || !strings.Contains(err.Error(), "duplicate snapshot") {
		t.Fatalf("duplicate rank snapshot: err = %v", err)
	}
	if err := c.AddState(1, nil, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.AddState(1, nil, 0, nil, nil); err == nil || !strings.Contains(err.Error(), "duplicate training state") {
		t.Fatalf("duplicate state: err = %v", err)
	}
	// Opening boundary 2 while boundary 1 is incomplete breaks the
	// world-collective ordering invariant.
	if err := c.AddRank(2, 1, snapWithClock(2)); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("boundary overlap: err = %v", err)
	}
}

func TestCollectorAbortKeepsLatest(t *testing.T) {
	c := NewCollector(1)
	if err := c.AddState(1, []float64{4}, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRank(1, 0, snapWithClock(1)); err != nil {
		t.Fatal(err)
	}
	// Start boundary 2, then abort mid-build (a failure landed).
	if err := c.AddRank(2, 0, snapWithClock(2)); err != nil {
		// p=1: a single AddRank completes the boundary only with state;
		// this build is open and incomplete.
		t.Fatal(err)
	}
	c.Abort()
	ck, err := c.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Epoch != 1 {
		t.Fatalf("Abort lost the published checkpoint: %+v", ck)
	}
	// The aborted boundary can be rebuilt from scratch.
	if err := c.AddState(2, []float64{5}, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRank(2, 0, snapWithClock(2)); err != nil {
		t.Fatal(err)
	}
	ck, err = c.Latest()
	if err != nil || ck.Epoch != 2 {
		t.Fatalf("rebuilt boundary 2 not published: %+v, %v", ck, err)
	}
}

func TestCollectorPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCollector(0) did not panic")
		}
	}()
	NewCollector(0)
}

func TestStatsRecordFailure(t *testing.T) {
	var s Stats
	s.RecordFailure(&cluster.RankFailure{Rank: 2, At: 5}, 1, 3)
	s.RecordFailure(&cluster.RankFailure{Rank: 0, At: 2}, 0, 4) // restore after failure: no negative waste
	if len(s.Failures) != 2 || s.Failures[0] != (cluster.Failure{Rank: 2, At: 5}) {
		t.Fatalf("Failures = %+v", s.Failures)
	}
	if got, want := s.RestartEpochs, []int{1, 0}; got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("RestartEpochs = %v, want %v", got, want)
	}
	if s.WastedSim != 2 {
		t.Fatalf("WastedSim = %v, want 2 (second failure clamps at zero)", s.WastedSim)
	}
}
