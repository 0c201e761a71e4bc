package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// foldSpecials are the values a float64 sum treats specially: signed
// zeros, NaNs with distinct payloads and signs, infinities, subnormals
// and the extremes whose sums overflow.
var foldSpecials = []float64{
	0, math.Copysign(0, -1),
	math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000456),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x0000000000000fff),
	math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.1,
}

// foldValue draws one element: a special value about a third of the
// time, else a normal number across a wide range of magnitudes.
func foldValue(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return foldSpecials[rng.Intn(len(foldSpecials))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
}

// signedZeros returns n elements, each +0 or −0.
func signedZeros(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = math.Copysign(0, -1)
		}
	}
	return v
}

// foldGeneration draws one generation's contributions, one per member.
// Members contribute a vector of their own, a private all-zero one, the
// generation's shared signed-zero vector or its shared non-zero vector;
// every fourth generation is all shared zeros.
func foldGeneration(rng *rand.Rand, p, n, gen int) [][]float64 {
	sharedZero := signedZeros(rng, n)
	sharedLive := make([]float64, n)
	for i := range sharedLive {
		sharedLive[i] = foldValue(rng)
	}
	if n > 0 && rng.Intn(2) == 0 {
		// Non-zero in one element only: the zero test must read them all.
		clear(sharedLive)
		sharedLive[rng.Intn(n)] = foldValue(rng)
	}
	xs := make([][]float64, p)
	for m := range xs {
		switch k := rng.Intn(4); {
		case gen%4 == 3 || k == 0:
			xs[m] = sharedZero
		case k == 1:
			xs[m] = sharedLive
		case k == 2:
			xs[m] = signedZeros(rng, n)
		default:
			v := make([]float64, n)
			for i := range v {
				v[i] = foldValue(rng)
			}
			xs[m] = v
		}
	}
	return xs
}

// serialFold is the reference sum: +0, then each contribution added in
// order, one element at a time.
func serialFold(xs [][]float64) []float64 {
	sum := make([]float64, len(xs[0]))
	for _, v := range xs {
		for i, f := range v {
			sum[i] += f
		}
	}
	return sum
}

// hierarchicalFold is the reference sum of the hierarchical schedule:
// each node's members folded in order, then the node totals in node
// order.
func hierarchicalFold(xs [][]float64, gpusPerNode int) []float64 {
	var partials [][]float64
	for lo := 0; lo < len(xs); lo += gpusPerNode {
		partials = append(partials, serialFold(xs[lo:min(lo+gpusPerNode, len(xs))]))
	}
	return serialFold(partials)
}

// sameSum reports whether a fold's element equals the reference's bit
// for bit. The one exception is a NaN that several NaNs fed: IEEE 754
// leaves open which input's payload an add propagates, and the vector
// kernel keeps the running sum's where the compiled scalar loop keeps
// the addend's, so any NaN matches a NaN there.
func sameSum(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// TestAllReduceSumMatchesSerialFold: the striped, zero-skipping fold
// returns the serial loop's total bit for bit on every member — signed
// zeros, NaNs, infinities, subnormals and overflow included —
// for shared zero and shared non-zero contributions, all-zero
// generations, vectors long enough to fold in parallel stripes, and the
// hierarchical schedule, at GOMAXPROCS 1 and 4. One communicator runs
// every generation, so the recycled fold records see lengths change.
func TestAllReduceSumMatchesSerialFold(t *testing.T) {
	lengths := []int{0, 1, 2, 7, 33, 40000}
	for _, hier := range []bool{false, true} {
		for _, p := range []int{1, 2, 3, 8, 13} {
			t.Run(fmt.Sprintf("hier=%v/p=%d", hier, p), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(p)))
				const gens = 12
				xs := make([][][]float64, gens)
				want := make([][]float64, gens)
				m := testModel()
				if hier {
					m.Collectives.AllReduce = Hierarchical
				}
				for g := range xs {
					xs[g] = foldGeneration(rng, p, lengths[rng.Intn(len(lengths))], g)
					if hier {
						want[g] = hierarchicalFold(xs[g], m.GPUsPerNode)
					} else {
						want[g] = serialFold(xs[g])
					}
				}
				atWorkers(t, func(t *testing.T) float64 {
					cl := New(p, m)
					world := cl.World()
					res, err := cl.Run(func(r *Rank) error {
						for g := range xs {
							r.AdvanceBy(float64(r.ID%3) * 1e-6)
							got := AllReduceSum(world, r, xs[g][r.ID])
							if len(got) != len(want[g]) {
								return fmt.Errorf("rank %d generation %d: %d elements, want %d", r.ID, g, len(got), len(want[g]))
							}
							for i := range got {
								if !sameSum(got[i], want[g][i]) {
									return fmt.Errorf("rank %d generation %d element %d: %v (%#x), serial fold %v (%#x)",
										r.ID, g, i, got[i], math.Float64bits(got[i]), want[g][i], math.Float64bits(want[g][i]))
								}
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					return res.SimTime
				})
			})
		}
	}
}

// TestSumFoldAddends: a backing array several members contribute is
// skipped everywhere when it is all zero (of either sign) and added once
// per member otherwise; a contribution of its own is always added.
func TestSumFoldAddends(t *testing.T) {
	zero := []float64{0, math.Copysign(0, -1), 0}
	live := []float64{0, 0, 3}
	own := []float64{0, 0, 0}
	other := []float64{1, 2, 3}
	f := &sumFold{}
	f.vals = [][]float64{zero, live, own, zero, live, other, zero}
	got := f.addends()
	want := [][]float64{live, own, live, other}
	if len(got) != len(want) {
		t.Fatalf("%d addends, want %d", len(got), len(want))
	}
	for i := range want {
		if &got[i][0] != &want[i][0] {
			t.Fatalf("addend %d is %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAllReduceSumApplyFoldsOncePerGeneration: apply runs exactly once
// per collective, on the full total, and finishes before any member
// returns — flat and hierarchical, on an uncontended cluster (whose last
// arriver yields at the rendezvous) and a contended one — at GOMAXPROCS
// 1 and 4. apply lets the other members run before it finishes.
func TestAllReduceSumApplyFoldsOncePerGeneration(t *testing.T) {
	const p, gens = 8, 6
	for _, tc := range []struct {
		name string
		hier bool
		topo *Topology
	}{{"flat", false, nil}, {"hierarchical", true, nil}, {"oversubscribed", false, OversubscribedTopology(4)}} {
		t.Run(tc.name, func(t *testing.T) {
			atWorkers(t, func(t *testing.T) float64 {
				m := testModel()
				m.Topology = tc.topo
				if tc.hier {
					m.Collectives.AllReduce = Hierarchical
				}
				cl := New(p, m)
				world := cl.World()
				var applied [gens]atomic.Int32
				var finished [gens]atomic.Bool
				// A member records what it saw and carries on: returning
				// early would strand its peers in the next collective.
				res, err := cl.Run(func(r *Rank) (err error) {
					for g := 0; g < gens; g++ {
						r.AdvanceBy(float64(r.ID%3) * 1e-6)
						var bad atomic.Value
						AllReduceSumApply(world, r, []float64{float64(r.ID), float64(g)}, func(total []float64) {
							applied[g].Add(1)
							for i := 0; i < 100; i++ {
								runtime.Gosched()
							}
							if total[0] != p*(p-1)/2 || total[1] != float64(p*g) {
								bad.Store(fmt.Sprint(total))
							}
							finished[g].Store(true)
						})
						if s := bad.Load(); s != nil && err == nil {
							err = fmt.Errorf("generation %d: apply saw total %v", g, s)
						}
						if n := applied[g].Load(); (n != 1 || !finished[g].Load()) && err == nil {
							err = fmt.Errorf("rank %d returned from generation %d after %d applies (finished %v)",
								r.ID, g, n, finished[g].Load())
						}
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				for g := range applied {
					if n := applied[g].Load(); n != 1 {
						t.Fatalf("generation %d applied %d times", g, n)
					}
				}
				return res.SimTime
			})
		})
	}
}

// TestAllReduceSumFoldFailureReachesEveryMember: an apply that panics
// and contributions of different lengths each end every member with a
// diagnostic rather than a hang, at GOMAXPROCS 1 and 4. Under the
// hierarchical schedule the node leaders fold; the members waiting for
// them in the closing broadcast learn that their leader is gone.
func TestAllReduceSumFoldFailureReachesEveryMember(t *testing.T) {
	const p = 8
	for _, tc := range []struct {
		name  string
		hier  bool
		x     func(r *Rank) []float64
		apply func([]float64)
		want  string
	}{
		{"apply panics", false, func(*Rank) []float64 { return []float64{1, 2} },
			func([]float64) { panic("optimizer exploded") }, "optimizer exploded"},
		{"length mismatch", false, func(r *Rank) []float64 { return make([]float64, 2+r.ID%2) },
			nil, "length mismatch"},
		{"apply panics, hierarchical", true, func(*Rank) []float64 { return []float64{1, 2} },
			func([]float64) { panic("optimizer exploded") }, "optimizer exploded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			atWorkers(t, func(t *testing.T) float64 {
				m := testModel()
				if tc.hier {
					m.Collectives.AllReduce = Hierarchical
				}
				cl := New(p, m)
				world := cl.World()
				msgs := make([]string, p)
				done := make(chan struct{})
				go func() {
					defer close(done)
					_, _ = cl.Run(func(r *Rank) error {
						defer func() { msgs[r.ID] = fmt.Sprint(recover()) }()
						AllReduceSumApply(world, r, tc.x(r), tc.apply)
						return nil
					})
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("a member hung after the fold failed")
				}
				for rank, msg := range msgs {
					folder := !tc.hier || rank%m.GPUsPerNode == 0
					switch {
					case msg == "<nil>":
						t.Errorf("rank %d returned without a diagnostic", rank)
					case folder && !(strings.Contains(msg, "allreduce fold panicked") && strings.Contains(msg, tc.want)):
						t.Errorf("rank %d diagnostic %q does not report the fold's %q", rank, msg, tc.want)
					}
				}
				return 0
			})
		})
	}
}
