package cluster

import (
	"math"
	"testing"
)

// runWorld executes body on a fresh p-rank cluster under the given
// algorithm table and returns the result.
func runWorld(t *testing.T, p int, tbl Collectives, body func(c *Comm, r *Rank)) *Result {
	t.Helper()
	cl := New(p, testModel())
	cl.Model.Collectives = tbl
	world := cl.World()
	res, err := cl.Run(func(r *Rank) error {
		body(world, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func almost(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-12*(math.Abs(a)+math.Abs(b))
}

// Each algorithm's charged cost must match its analytic formula: the
// measured makespan of one collective with synchronized entry equals
// the Predict* closed form (plus the documented memory term for
// all-reduce).
func TestChargedCostsMatchAnalyticFormulas(t *testing.T) {
	const p = 8 // 2 nodes of 4 under testModel
	const bytes = 1 << 16
	model := testModel()
	link := InterNode

	cases := []struct {
		name string
		tbl  Collectives
		body func(c *Comm, r *Rank)
		want float64
	}{
		{"broadcast/flat", Collectives{},
			func(c *Comm, r *Rank) { Broadcast(c, r, 0, 0, bytes) },
			PredictBroadcast(model, FlatTree, link, p, bytes)},
		{"broadcast/ring", Collectives{AllReduce: Ring},
			func(c *Comm, r *Rank) { Broadcast(c, r, 0, 0, bytes) },
			PredictBroadcast(model, Ring, link, p, bytes)},
		{"allgather/flat", Collectives{},
			func(c *Comm, r *Rank) { AllGather(c, r, 0, bytes) },
			PredictAllGather(model, FlatTree, link, p, p*bytes, bytes)},
		{"allgather/ring", Collectives{AllReduce: Ring},
			func(c *Comm, r *Rank) { AllGather(c, r, 0, bytes) },
			PredictAllGather(model, Ring, link, p, p*bytes, bytes)},
		{"allreduce/flat", Collectives{},
			func(c *Comm, r *Rank) { AllReduceSum(c, r, make([]float64, bytes/8)) },
			PredictAllReduce(model, FlatTree, link, p, bytes) +
				float64(AllReduceMemBytes(FlatTree, p, bytes))/model.MemBW[GPU]},
		{"allreduce/ring", Collectives{AllReduce: Ring},
			func(c *Comm, r *Rank) { AllReduceSum(c, r, make([]float64, bytes/8)) },
			PredictAllReduce(model, Ring, link, p, bytes) +
				float64(AllReduceMemBytes(Ring, p, bytes))/model.MemBW[GPU]},
		{"allreduce/hier", Collectives{AllReduce: Hierarchical},
			func(c *Comm, r *Rank) { AllReduceSum(c, r, make([]float64, bytes/8)) },
			PredictHierAllReduce(model, []int{0, 1, 2, 3, 4, 5, 6, 7}, bytes)},
		{"alltoallv/flat", Collectives{},
			func(c *Comm, r *Rank) {
				AllToAllv(c, r, make([]int, p), func(int) int { return bytes / p })
			},
			PredictAllToAllv(model, FlatTree, link, p, (bytes/p)*(p-1))},
		{"alltoallv/pairwise", Collectives{AllToAll: Pairwise},
			func(c *Comm, r *Rank) {
				AllToAllv(c, r, make([]int, p), func(int) int { return bytes / p })
			},
			PredictAllToAllv(model, Pairwise, link, p, (bytes/p)*(p-1))},
	}
	for _, cse := range cases {
		res := runWorld(t, p, cse.tbl, cse.body)
		if !almost(res.SimTime, cse.want) {
			t.Errorf("%s: measured %.17g, analytic %.17g", cse.name, res.SimTime, cse.want)
		}
	}
}

// The schedules must trade exactly as designed: ring broadcast beats
// the binomial tree at large messages (its β term does not grow with
// log p), pairwise all-to-allv beats the linear exchange at small
// messages (log p latency terms instead of p−1), and each loses on the
// other end.
func TestAlgorithmCrossovers(t *testing.T) {
	m := testModel()
	big, small := 4<<20, 1<<10
	if r, f := PredictBroadcast(m, Ring, InterNode, 8, big), PredictBroadcast(m, FlatTree, InterNode, 8, big); r >= f {
		t.Errorf("ring broadcast (%v) not faster than flat (%v) at %d bytes", r, f, big)
	}
	if r, f := PredictBroadcast(m, Ring, InterNode, 8, small), PredictBroadcast(m, FlatTree, InterNode, 8, small); r <= f {
		t.Errorf("ring broadcast (%v) not slower than flat (%v) at %d bytes", r, f, small)
	}
	if pw, f := PredictAllToAllv(m, Pairwise, InterNode, 64, small), PredictAllToAllv(m, FlatTree, InterNode, 64, small); pw >= f {
		t.Errorf("pairwise all-to-allv (%v) not faster than flat (%v) at %d bytes", pw, f, small)
	}
	if pw, f := PredictAllToAllv(m, Pairwise, InterNode, 64, 64<<20), PredictAllToAllv(m, FlatTree, InterNode, 64, 64<<20); pw <= f {
		t.Errorf("pairwise all-to-allv (%v) not slower than flat (%v) at large bytes", pw, f)
	}
}

// Algorithm selection changes the schedule, never the result values.
func TestAllReduceValuesIdenticalAcrossAlgorithms(t *testing.T) {
	for _, tbl := range []Collectives{
		{},
		{AllReduce: Ring},
		{AllReduce: Hierarchical},
	} {
		runWorld(t, 8, tbl, func(c *Comm, r *Rank) {
			x := []float64{float64(r.ID), 2, float64(3 * r.ID)}
			got := AllReduceSum(c, r, x)
			want := []float64{28, 16, 84}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Errorf("table %+v slot %d: got %v want %v", tbl, i, got[i], want[i])
				}
			}
		})
	}
}

// Per-link byte counters: a flat all-reduce spanning nodes books every
// member's payload on the inter-node tier, while the hierarchical
// schedule books inter-node bytes for the node leaders only — traffic
// proportional to node count, the property the paper's hierarchical
// all-reduce exists for.
func TestLinkByteCountersPerAlgorithm(t *testing.T) {
	const bytes = 1 << 13
	body := func(c *Comm, r *Rank) { AllReduceSum(c, r, make([]float64, bytes/8)) }

	flat := runWorld(t, 8, Collectives{}, body).LinkTraffic()
	if flat[InterNode] != 8*bytes || flat[IntraNode] != 0 {
		t.Fatalf("flat traffic: %v", flat)
	}

	hier := runWorld(t, 8, Collectives{AllReduce: Hierarchical}, body).LinkTraffic()
	if hier[InterNode] != 2*bytes { // 2 node leaders
		t.Fatalf("hier inter-node traffic = %d, want %d", hier[InterNode], 2*bytes)
	}
	if hier[IntraNode] == 0 {
		t.Fatal("hier booked no intra-node traffic")
	}

	// ChargeLink feeds the same counters (host tier).
	cl := New(1, testModel())
	res, err := cl.Run(func(r *Rank) error {
		r.SetPhase("uva")
		r.ChargeLink(HostLink, 4096)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PhaseLinkTraffic("uva"); got[HostLink] != 4096 {
		t.Fatalf("host traffic = %v", got)
	}
}

// The generic all-reduce charges the local-reduction memory traffic
// the way AllReduceSum does, costing on the maximum contribution size
// across members.
func TestAllReduceGenericChargesMemOnMax(t *testing.T) {
	const p = 4
	const maxBytes = 400 // rank 3's contribution
	res := runWorld(t, p, Collectives{}, func(c *Comm, r *Rank) {
		bytes := 100 * (r.ID + 1)
		AllReduceGenericInto(c, r, r.ID, bytes, new(int), func(vals []int, dests []*int) {})
	})
	m := testModel()
	want := PredictAllReduce(m, FlatTree, IntraNode, p, maxBytes) +
		float64(AllReduceMemBytes(FlatTree, p, maxBytes))/m.MemBW[GPU]
	if !almost(res.SimTime, want) {
		t.Fatalf("generic all-reduce charged %.17g, want %.17g (β and mem on max contribution)", res.SimTime, want)
	}
}

func TestParseCollectives(t *testing.T) {
	tbl, err := ParseCollectives("ring", "pairwise")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.AllReduce != Ring || tbl.AllToAll != Pairwise {
		t.Fatalf("parsed %+v", tbl)
	}
	if tbl, err = ParseCollectives("", ""); err != nil || tbl != (Collectives{}) {
		t.Fatalf("default parse: %+v, %v", tbl, err)
	}
	if _, err = ParseCollectives("warp", ""); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err = ParseCollectives("pairwise", ""); err == nil {
		t.Fatal("pairwise all-reduce accepted")
	}
	if _, err = ParseCollectives("", "hier"); err == nil {
		t.Fatal("hierarchical all-to-allv accepted")
	}
	for _, a := range []CollectiveAlgorithm{DefaultAlgorithm, FlatTree, Ring, Pairwise, Hierarchical} {
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Fatalf("%v does not round-trip (%v, %v)", a, back, err)
		}
	}
}
