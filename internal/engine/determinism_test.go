package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// TestDifferentialOverlapWorkers: random overlapped
// pipelines on the scheduler — random stage durations and queue
// capacities (1–3), link charges contending on an oversubscribed
// fabric, a gradient-style all-reduce in the last stage and an
// injected fail-stop — log the same clocks, stall buckets and commit
// order whether the scheduler runs 1, 2, 4 or 8 segments at once.
func TestDifferentialOverlapWorkers(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		var want string
		for _, w := range []int{1, 2, 4, 8} {
			got := overlapDESLog(t, seed, w)
			if w == 1 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d: W=%d log differs from W=1:\n%s", seed, w, firstDiff(want, got))
			}
		}
	}
}

// overlapDESLog runs seed's random pipeline at W = w and renders what
// the run decided: every stage's clock before and after each item, the
// commit order of the link charges, each rank's phase buckets and the
// run's outcome.
func overlapDESLog(t *testing.T, seed int64, w int) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
	rng := rand.New(rand.NewSource(seed))
	p, stages, n := 2+rng.Intn(3), 2+rng.Intn(3), 3+rng.Intn(8)
	caps := make([]int, stages)
	for s := range caps {
		caps[s] = 1 + rng.Intn(3)
	}
	// dur[rank][stage][item] are the compute times; link marks the
	// (rank, stage, item) cells that also push bytes through the NIC.
	dur := make([][][]float64, p)
	link := make([][][]bool, p)
	for r := range dur {
		dur[r], link[r] = make([][]float64, stages), make([][]bool, stages)
		for s := range dur[r] {
			dur[r][s], link[r][s] = make([]float64, n), make([]bool, n)
			for i := range dur[r][s] {
				dur[r][s][i] = float64(1+rng.Intn(40)) * 1e-6
				link[r][s][i] = rng.Intn(2) == 0
			}
		}
	}
	m := cluster.Perlmutter()
	m.Topology = cluster.OversubscribedTopology(4)
	m.Faults = &cluster.FaultPlan{Failures: []cluster.Failure{
		{Rank: rng.Intn(p), At: float64(n*stages) * rng.Float64() * 60e-6}}}

	cl := cluster.New(p, m)
	world := cl.World()
	var mu sync.Mutex
	var commits []string // appended while holding the commit turn
	clocks := make([][]string, p)
	snaps := make([]cluster.RankSnapshot, p)
	_, err := cl.Run(func(r *cluster.Rank) error {
		var own sync.Mutex // the rank's streams append to clocks[r.ID]
		pl := &Pipeline{Overlap: true}
		for s := 0; s < stages; s++ {
			s := s
			pl.Stages = append(pl.Stages, Stage{
				Name:  fmt.Sprintf("s%d", s),
				Queue: caps[s],
				Run: func(rs *cluster.Rank, i int, in any) (any, error) {
					before := rs.Clock()
					rs.AdvanceBy(dur[rs.ID][s][i])
					if link[rs.ID][s][i] {
						// ChargeLink opens a commit section, and the
						// segment holds the turn until it parks: this
						// append lands in commit order.
						rs.ChargeLink(cluster.InterNode, 1<<16)
						mu.Lock()
						commits = append(commits, fmt.Sprintf("%d.%d.%d@%v", rs.ID, s, i, rs.Clock()))
						mu.Unlock()
					}
					if s == stages-1 {
						cluster.AllReduceSum(world, rs, []float64{float64(i)})
					}
					own.Lock()
					clocks[rs.ID] = append(clocks[rs.ID], fmt.Sprintf("%d.%02d %v→%v", s, i, before, rs.Clock()))
					own.Unlock()
					return i, nil
				},
			})
		}
		err := pl.Execute(r, n)
		snaps[r.ID] = r.Snapshot() // every stream is joined: quiescent
		return err
	})
	var b strings.Builder
	fmt.Fprintf(&b, "p=%d stages=%d n=%d caps=%v err=%v\ncommits %v\n", p, stages, n, caps, err, commits)
	for r, snap := range snaps {
		// Streams interleave their appends, but each stream's own
		// lines keep its program order, so sorting by stage fixes them.
		lines := append([]string(nil), clocks[r]...)
		sort.Strings(lines)
		fmt.Fprintf(&b, "rank %d phases %v main %+v streams %+v\n  %s\n",
			r, snap.Phases, snap.Main, snap.Streams, strings.Join(lines, "\n  "))
	}
	return b.String()
}

// firstDiff returns the first differing line of two logs.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n want %s\n  got %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}
