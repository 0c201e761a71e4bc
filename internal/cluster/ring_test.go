package cluster

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"
)

// TestWarmCollectiveAllocatesNothing: every collective deposits its
// contribution into its generation's records on the rendezvous's ring,
// so once every slot of the ring holds them a further call allocates
// nothing on any member, slice-typed payloads included — uncontended
// ("ideal") and on an oversubscribed fabric, where each call also
// solves its flows in the contention ledger. As in
// pipeline's TestFetchCachedCostsWhatItRequests, a run's own cost is
// cancelled by subtracting a run with fewer calls.
func TestWarmCollectiveAllocatesNothing(t *testing.T) {
	const n, more = 8, 6
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	vals, dests := make([][]int, n), make([][]int, n)
	for i := range vals {
		vals[i], dests[i] = []int{i}, make([]int, 1)
	}
	size := func(v []int) int { return 8 * len(v) }
	sum := func(vals, dests [][]int) {
		total := 0
		for _, v := range vals {
			total += v[0]
		}
		for _, d := range dests {
			d[0] = total
		}
	}
	// Each call reports whether the caller's result is right.
	for _, tc := range []struct {
		name string
		call func(c *Comm, r *Rank) bool
	}{
		{"broadcast", func(c *Comm, r *Rank) bool {
			return Broadcast(c, r, 0, vals[r.ID], 8)[0] == 0
		}},
		{"gather", func(c *Comm, r *Rank) bool {
			got := Gather(c, r, 0, vals[r.ID], 8)
			if r.ID != 0 {
				return got == nil
			}
			return len(got) == n && got[n-1][0] == n-1
		}},
		{"scatter", func(c *Comm, r *Rank) bool {
			var parts [][]int
			if r.ID == 0 {
				parts = vals
			}
			return Scatter(c, r, 0, parts, size)[0] == r.ID
		}},
		{"allgather", func(c *Comm, r *Rank) bool {
			got := AllGather(c, r, vals[r.ID], 8)
			return len(got) == n && got[n-1][0] == n-1
		}},
		{"allreduce-generic", func(c *Comm, r *Rank) bool {
			return AllReduceGenericInto(c, r, vals[r.ID], 8, dests[r.ID], sum)[0] == n*(n-1)/2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, topo := range []*Topology{nil, OversubscribedTopology(4)} {
				t.Run(topo.String(), func(t *testing.T) {
					m := testModel()
					m.Topology = topo
					cl := New(n, m)
					world := cl.World()
					run := func(calls int) float64 {
						return testing.AllocsPerRun(4, func() {
							if _, err := cl.Run(func(r *Rank) error {
								for i := 0; i < calls; i++ {
									if !tc.call(world, r) {
										return fmt.Errorf("rank %d: wrong %s result", r.ID, tc.name)
									}
								}
								return nil
							}); err != nil {
								t.Fatal(err)
							}
						})
					}
					run(3) // records on every slot of the ring
					warm, hot := run(3), run(3+more)
					if perCall := (hot - warm) / float64(more*n); perCall != 0 {
						t.Fatalf("a warm %s allocates %v objects per member, want 0 (%v allocations at 3 calls, %v at %d)",
							tc.name, perCall, warm, hot, 3+more)
					}
				})
			}
		})
	}
}

// TestRingLifetime: one communicator drives every collective kind in a
// fixed interleaving through enough generations that every slot of the
// rendezvous's record ring is reused more than twice, uncontended and
// on an oversubscribed fabric (where each collective takes a second,
// contended round), at GOMAXPROCS 1 and 4. Arrival order varies from
// generation to generation, and every member checks every result while
// its contract holds it valid; a record reused too early shows as a
// wrong value.
func TestRingLifetime(t *testing.T) {
	const p, rounds = 8, 3
	for _, tc := range []struct {
		name string
		topo *Topology
	}{{"uncontended", nil}, {"oversubscribed", OversubscribedTopology(4)}} {
		t.Run(tc.name, func(t *testing.T) {
			atWorkers(t, func(t *testing.T) float64 {
				m := testModel()
				m.Topology = tc.topo
				cl := New(p, m)
				world := cl.World()
				steps := ringSteps(p)
				errs := make([]error, p)
				res, err := cl.Run(func(r *Rank) error {
					me := world.LocalIndex(r)
					for g := 0; g < rounds*len(steps); g++ {
						r.AdvanceBy(float64((me*5+g)%7) * 1e-6)
						// A member records its first wrong result and carries
						// on: returning early would strand its peers.
						if err := steps[g%len(steps)](world, r, me, g); err != nil && errs[me] == nil {
							errs[me] = fmt.Errorf("rank %d, step %d: %w", r.ID, g, err)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				return res.SimTime
			})
		})
	}
}

// ringStep is one collective of TestRingLifetime: member me's call at
// step g, returning an error if its result is wrong.
type ringStep func(c *Comm, r *Rank, me, g int) error

// ringValue is member m's payload at step g.
func ringValue(g, m int) []int { return []int{g, m} }

// ringSteps returns one step per collective kind. The all-to-allv runs
// as a request and a reply that sends back to the request's senders,
// as the feature fetch does: the reply's destinations are the
// request's result, read through the next collective.
func ringSteps(p int) []ringStep {
	size := func(v []int) int { return 8 * len(v) }
	same := func(what string, got, want []int) error {
		if !slices.Equal(got, want) {
			return fmt.Errorf("%s: got %v, want %v", what, got, want)
		}
		return nil
	}
	// fromAll checks a table holding every member's payload at step g.
	fromAll := func(what string, got [][]int, g int) error {
		if len(got) != p {
			return fmt.Errorf("%s: %d entries, want %d", what, len(got), p)
		}
		for m, v := range got {
			if err := same(what, v, ringValue(g, m)); err != nil {
				return err
			}
		}
		return nil
	}
	// exchanged checks an all-to-allv result: the senders, ascending,
	// each with its payload at step g.
	exchanged := func(what string, src []int, got [][]int, g int, senders ...int) error {
		slices.Sort(senders)
		if err := same(what+" senders", src, senders); err != nil {
			return err
		}
		for k, v := range got {
			if err := same(what, v, ringValue(g, src[k])); err != nil {
				return err
			}
		}
		return nil
	}
	asked := make([][]int, p) // each member's request senders, until its reply
	return []ringStep{
		func(c *Comm, r *Rank, me, g int) error {
			return fromAll("allgather", AllGather(c, r, ringValue(g, me), 16), g)
		},
		func(c *Comm, r *Rank, me, g int) error {
			root := g % p
			return same("broadcast", Broadcast(c, r, root, ringValue(g, me), 16), ringValue(g, root))
		},
		func(c *Comm, r *Rank, me, g int) error {
			root := (g + 1) % p
			got := Gather(c, r, root, ringValue(g, me), 16)
			if me != root {
				if got != nil {
					return fmt.Errorf("gather: non-root got %v", got)
				}
				return nil
			}
			return fromAll("gather", got, g)
		},
		func(c *Comm, r *Rank, me, g int) error {
			root := (g + 2) % p
			var parts [][]int
			if me == root {
				for m := 0; m < p; m++ {
					parts = append(parts, ringValue(g, m))
				}
			}
			return same("scatter", Scatter(c, r, root, parts, size), ringValue(g, me))
		},
		func(c *Comm, r *Rank, me, g int) error {
			dst := []int{(me + 1) % p, (me + 3) % p}
			src, got := AllToAllvSparse(c, r, dst, [][]int{ringValue(g, me), ringValue(g, me)}, size)
			asked[me] = src
			return exchanged("request", src, got, g, (me+p-1)%p, (me+p-3)%p)
		},
		func(c *Comm, r *Rank, me, g int) error {
			replies := make([][]int, len(asked[me]))
			for k := range replies {
				replies[k] = ringValue(g, me)
			}
			src, got := AllToAllvSparse(c, r, asked[me], replies, size)
			return exchanged("reply", src, got, g, (me+1)%p, (me+3)%p)
		},
		func(c *Comm, r *Rank, me, g int) error {
			total := allReduceSum(c, r, []float64{float64(g), float64(me)}, c.allReduceAlg(), nil)
			if total[0] != float64(g*p) || total[1] != float64(p*(p-1)/2) {
				return fmt.Errorf("allreduce: got %v", total)
			}
			return nil
		},
		func(c *Comm, r *Rank, me, g int) error {
			got := AllReduceGenericInto(c, r, ringValue(g, me), 16, make([]int, 2),
				func(vals, dests [][]int) {
					for _, d := range dests {
						for _, v := range vals {
							d[0] += v[0]
							d[1] += v[1]
						}
					}
				})
			return same("allreduce-generic", got, []int{g * p, p * (p - 1) / 2})
		},
	}
}
