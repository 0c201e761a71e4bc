package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sparsePattern is one round of a random all-to-allv: lens[s][d] is the
// length of the part member s sends to member d, or -1 when s does not
// list d at all.
type sparsePattern [][]int

// randomPatterns draws rounds of sparse destination patterns over n
// members. Empty parts, self parts and members sending nothing all
// occur.
func randomPatterns(rng *rand.Rand, n, rounds int) []sparsePattern {
	out := make([]sparsePattern, rounds)
	for k := range out {
		p := make(sparsePattern, n)
		for s := range p {
			p[s] = make([]int, n)
			silent := rng.Intn(4) == 0
			for d := range p[s] {
				switch {
				case silent || rng.Intn(3) == 0:
					p[s][d] = -1
				case rng.Intn(4) == 0:
					p[s][d] = 0
				default:
					p[s][d] = 1 + rng.Intn(64)
				}
			}
		}
		out[k] = p
	}
	return out
}

// payload is the part member s sends to member d in round k.
func payload(k, s, d, n int) []int {
	part := make([]int, n)
	for i := range part {
		part[i] = ((k*131+s)*131+d)*131 + i
	}
	return part
}

// TestAllToAllvSparseMatchesDense: a sparse exchange delivers exactly
// what the dense one delivers for the same pattern (absent parts being
// empty on the dense side), and charges bit for bit alike — clocks,
// per-op counts and bytes, link traffic — under both all-to-allv
// algorithms and on a contended topology.
func TestAllToAllvSparseMatchesDense(t *testing.T) {
	const n, rounds = 8, 12
	patterns := randomPatterns(rand.New(rand.NewSource(26)), n, rounds)
	pairwise := testModel()
	pairwise.Collectives.AllToAll = Pairwise
	contended := testModel()
	contended.Topology = OversubscribedTopology(4)
	models := map[string]CostModel{"flat": testModel(), "pairwise": pairwise, "oversubscribed": contended}
	for _, name := range []string{"flat", "pairwise", "oversubscribed"} {
		t.Run(name+"/"+DESBackend.String(), func(t *testing.T) {
			dense := runPatterns(t, models[name], patterns, false)
			sparse := runPatterns(t, models[name], patterns, true)
			if !reflect.DeepEqual(dense, sparse) {
				t.Fatalf("sparse run differs from dense:\ndense  %+v\nsparse %+v", dense.Ranks, sparse.Ranks)
			}
		})
	}
}

// runPatterns drives every round through the dense or the sparse
// all-to-allv, checking each member's deliveries against the pattern.
func runPatterns(t *testing.T, m CostModel, patterns []sparsePattern, sparse bool) *Result {
	t.Helper()
	n := len(patterns[0])
	cl := New(n, m)
	world := cl.World()
	bytes := func(p []int) int { return 8 * len(p) }
	res, err := cl.Run(func(r *Rank) error {
		me := r.ID
		for k, p := range patterns {
			r.AdvanceBy(float64((me*7+k)%5) * 1e-6)
			var dst []int
			var parts [][]int
			for d, l := range p[me] {
				if l >= 0 {
					dst = append(dst, d)
					parts = append(parts, payload(k, me, d, l))
				}
			}
			var src []int
			var got [][]int
			if sparse {
				src, got = AllToAllvSparse(world, r, dst, parts, bytes)
			} else {
				dense := make([][]int, n)
				for i, d := range dst {
					dense[d] = parts[i]
				}
				for s, part := range AllToAllv(world, r, dense, bytes) {
					if p[s][me] >= 0 {
						src, got = append(src, s), append(got, part)
					} else if part != nil {
						return fmt.Errorf("round %d: rank %d got an unsent part from %d", k, me, s)
					}
				}
			}
			var want []int
			for s := range p {
				if p[s][me] >= 0 {
					want = append(want, s)
				}
			}
			if !slices.Equal(src, want) {
				return fmt.Errorf("round %d: rank %d heard from %v, want %v", k, me, src, want)
			}
			for i, s := range src {
				if !slices.Equal(got[i], payload(k, s, me, p[s][me])) {
					return fmt.Errorf("round %d: rank %d got %v from %d", k, me, got[i], s)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAllToAllvSparseRejectsBadDestinations: a destination outside the
// communicator or a dst/parts length mismatch panics before arriving.
func TestAllToAllvSparseRejectsBadDestinations(t *testing.T) {
	for _, c := range []struct {
		name string
		dst  []int
		want string
	}{
		{"outside", []int{1}, "destination 1 outside 1 members"},
		{"negative", []int{-1}, "destination -1 outside"},
		{"mismatch", []int{0, 0}, "2 destinations for 1 parts"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl := New(1, testModel())
			world := cl.World()
			var msg string
			if _, err := cl.Run(func(r *Rank) error {
				defer func() { msg = fmt.Sprint(recover()) }()
				AllToAllvSparse(world, r, c.dst, []int{7}, func(int) int { return 8 })
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(msg, c.want) {
				t.Fatalf("panic %q, want %q", msg, c.want)
			}
		})
	}
}

// TestLateArrivalAtFinishedPeerDiagnosed: a peer that enters a
// collective with a rank whose body has already returned is diagnosed
// too. Rank 0 returns at once; rank 1 first completes a collective on a
// communicator without rank 0 and only then enters one it shares with
// rank 0.
func TestLateArrivalAtFinishedPeerDiagnosed(t *testing.T) {
	onDES(t, func(t *testing.T) float64 {
		cl := New(4, testModel())
		pair := cl.NewComm([]int{0, 1})
		rest := cl.NewComm([]int{1, 2, 3})
		var msg string
		_, err := cl.Run(func(r *Rank) error {
			if r.ID == 0 {
				return nil
			}
			Barrier(rest, r)
			if r.ID != 1 {
				return nil
			}
			defer func() { msg = fmt.Sprint(recover()) }()
			// Rank 0 returned before rank 1's first barrier, so nothing
			// poisons this one until the drain finds rank 1 parked here
			// once no timeline can run.
			Barrier(pair, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "rank 0") {
			t.Fatalf("late arrival not diagnosed: %q", msg)
		}
		return 0
	})
}
