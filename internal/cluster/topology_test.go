package cluster

import (
	"math"
	"strings"
	"testing"
	"time"
)

// testContention builds a standalone ledger over the given topology
// for direct fair-share-math tests.
func testContention(t *testing.T, topo *Topology, n int) *contention {
	t.Helper()
	model := Perlmutter()
	model.Topology = topo
	return newContention(model, n)
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s = %.17g, want %.17g", name, got, want)
	}
}

// A flow alone on its links runs at full tier bandwidth: the fair-share
// charge must equal the α–β model's β·bytes.
func TestFairShareSoloFlowMatchesBeta(t *testing.T) {
	ct := testContention(t, OversubscribedTopology(0), 8)
	beta := Perlmutter().Beta[InterNode]
	fin := ct.transact([]flowReq{{start: 1.0, bytes: 1e6, links: ct.linksFor(0, InterNode)}})
	approx(t, "solo finish", fin[0], 1.0+1e6*beta)
}

// Two equal concurrent transfers on one physical link each take twice
// the solo β time: the link's capacity is split fairly, not duplicated.
func TestFairShareTwoEqualFlowsTakeDouble(t *testing.T) {
	// One NIC per node: ranks 0 and 1 share nic:node0.0.
	ct := testContention(t, OversubscribedTopology(0), 8)
	beta := Perlmutter().Beta[InterNode]
	fin := ct.transact([]flowReq{
		{start: 0, bytes: 1e6, links: ct.linksFor(0, InterNode)},
		{start: 0, bytes: 1e6, links: ct.linksFor(1, InterNode)},
	})
	approx(t, "flow 0", fin[0], 2*1e6*beta)
	approx(t, "flow 1", fin[1], 2*1e6*beta)
}

// Transfers on disjoint physical links do not interact: each finishes
// at its solo time.
func TestFairShareDisjointLinksIndependent(t *testing.T) {
	ct := testContention(t, OversubscribedTopology(0), 8)
	beta := Perlmutter().Beta[InterNode]
	// Ranks 0 (node 0) and 4 (node 1) inject through different NICs.
	fin := ct.transact([]flowReq{
		{start: 0, bytes: 1e6, links: ct.linksFor(0, InterNode)},
		{start: 0, bytes: 1e6, links: ct.linksFor(4, InterNode)},
	})
	approx(t, "flow 0", fin[0], 1e6*beta)
	approx(t, "flow 1", fin[1], 1e6*beta)
	// NVLink ports and PCIe links are per-GPU: also disjoint.
	fin = ct.transact([]flowReq{
		{start: 0, bytes: 1e6, links: ct.linksFor(0, IntraNode)},
		{start: 0, bytes: 1e6, links: ct.linksFor(1, IntraNode)},
	})
	nvBeta := Perlmutter().Beta[IntraNode]
	approx(t, "nvlink flow 0", fin[0], 1e6*nvBeta)
	approx(t, "nvlink flow 1", fin[1], 1e6*nvBeta)
}

// A staggered second flow shares only while both are active: the first
// flow (already committed) keeps its time, the second pays half rate
// while the first is still draining.
func TestFairShareStaggeredFlowSeesCommittedOccupancy(t *testing.T) {
	ct := testContention(t, OversubscribedTopology(0), 8)
	cap := 1 / Perlmutter().Beta[InterNode]
	b := cap // one second of solo demand
	fin := ct.transact([]flowReq{{start: 0, bytes: b, links: ct.linksFor(0, InterNode)}})
	approx(t, "first flow", fin[0], 1.0)
	// Second flow starts at 0.5: shares [0.5, 1.0) at cap/2 (moves
	// 0.25·cap), then runs alone and needs 0.75 more seconds.
	fin = ct.transact([]flowReq{{start: 0.5, bytes: b, links: ct.linksFor(1, InterNode)}})
	approx(t, "staggered flow", fin[0], 1.75)
}

// An inter-node flow under an oversubscribed fabric crosses both its
// node NIC and the shared trunk; the trunk's lower capacity bounds it.
func TestFairShareTrunkBoundsOversubscribedFlows(t *testing.T) {
	ct := testContention(t, OversubscribedTopology(4), 8)
	model := Perlmutter()
	nicCap := 1 / model.Beta[InterNode]
	// 2 nodes: trunk capacity = 2·nic/4 = nic/2. A solo flow is
	// trunk-bound at half the NIC rate.
	fin := ct.transact([]flowReq{{start: 0, bytes: nicCap, links: ct.linksFor(0, InterNode)}})
	approx(t, "trunk-bound solo", fin[0], 2.0)
}

// Zero-byte flows (a barrier's members) finish at their start time and
// leave no occupancy behind.
func TestFairShareZeroByteFlowIsFree(t *testing.T) {
	ct := testContention(t, OversubscribedTopology(0), 8)
	fin := ct.transact([]flowReq{{start: 3, bytes: 0, links: ct.linksFor(0, InterNode)}})
	if fin[0] != 3 {
		t.Fatalf("zero-byte flow finish = %v, want 3", fin[0])
	}
	for _, spans := range ct.busy {
		if len(spans) != 0 {
			t.Fatal("zero-byte flow committed occupancy")
		}
	}
}

// Within one collective, same-node members sharing a NIC split its
// bandwidth: a world all-to-allv under a one-NIC-per-node topology
// takes GPUsPerNode times the β term of the ideal model.
func TestCollectiveSharesNodeNIC(t *testing.T) {
	run := func(topo *Topology) float64 {
		model := Perlmutter()
		model.Topology = topo
		cl := New(8, model)
		world := cl.World()
		res, err := cl.Run(func(r *Rank) error {
			parts := make([]int, 8)
			AllToAllv(world, r, parts, func(int) int { return 1 << 20 })
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	model := Perlmutter()
	vol := float64(7 << 20)
	alpha := 7 * model.Alpha[InterNode]
	ideal := run(nil)
	approx(t, "ideal alltoallv", ideal, alpha+vol*model.Beta[InterNode])
	// One NIC per node, non-blocking core: 4 flows share each NIC.
	shared := run(OversubscribedTopology(0))
	approx(t, "shared-NIC alltoallv", shared, alpha+4*vol*model.Beta[InterNode])
	// Per-GPU NICs (Perlmutter): no intra-collective sharing at all.
	perl := run(PerlmutterTopology())
	approx(t, "per-GPU-NIC alltoallv", perl, ideal)
}

// Per-physical-link stats surface in the run result: bytes routed and
// the peak concurrency actually observed.
func TestRunReportsPhysLinkStats(t *testing.T) {
	model := Perlmutter()
	model.Topology = OversubscribedTopology(4)
	cl := New(8, model)
	world := cl.World()
	res, err := cl.Run(func(r *Rank) error {
		AllReduceSum(world, r, make([]float64, 1024))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhysLinks) == 0 {
		t.Fatal("no physical-link stats recorded")
	}
	var nicBytes float64
	trunkSeen := false
	for _, pl := range res.PhysLinks {
		if strings.HasPrefix(pl.Name, "nic:") {
			nicBytes += pl.Bytes
			if pl.Bytes > 0 && pl.MaxConcurrency < 4 {
				t.Fatalf("NIC %s peak concurrency %d, want >= 4 (4 GPUs share it)",
					pl.Name, pl.MaxConcurrency)
			}
		}
		if pl.Name == "fabric-trunk" {
			trunkSeen = true
			if pl.Bytes <= 0 || pl.MaxConcurrency < 8 {
				t.Fatalf("trunk stats %+v, want all 8 flows crossing it", pl)
			}
		}
	}
	if nicBytes <= 0 {
		t.Fatal("no NIC traffic recorded for an inter-node all-reduce")
	}
	if !trunkSeen {
		t.Fatal("oversubscribed fabric trunk missing from stats")
	}
}

// The nil topology must never allocate a ledger: the charging path has
// to stay byte-for-byte the pre-topology α–β code.
func TestNilTopologyHasNoLedger(t *testing.T) {
	cl := New(4, Perlmutter())
	if cl.cont != nil {
		t.Fatal("nil topology built a contention ledger")
	}
	res, err := cl.Run(func(r *Rank) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.PhysLinks != nil {
		t.Fatal("nil topology reported physical links")
	}
}

func TestParseTopology(t *testing.T) {
	for _, s := range []string{"", "ideal", "none", "IDEAL"} {
		topo, err := ParseTopology(s)
		if err != nil || topo != nil {
			t.Fatalf("ParseTopology(%q) = %v, %v; want nil topology", s, topo, err)
		}
	}
	topo, err := ParseTopology("perlmutter")
	if err != nil || topo == nil || topo.NICsPerNode != 4 {
		t.Fatalf("ParseTopology(perlmutter) = %+v, %v", topo, err)
	}
	topo, err = ParseTopology("oversub")
	if err != nil || topo == nil || topo.NICsPerNode != 1 || topo.Oversub != 4 {
		t.Fatalf("ParseTopology(oversub) = %+v, %v", topo, err)
	}
	if _, err := ParseTopology("torus"); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if got := topo.String(); got != "oversub4x" {
		t.Fatalf("String() = %q", got)
	}
	var nilTopo *Topology
	if got := nilTopo.String(); got != "ideal" {
		t.Fatalf("nil String() = %q", got)
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := (*Topology)(nil).Validate(); err != nil {
		t.Fatalf("nil topology invalid: %v", err)
	}
	bad := []*Topology{
		{Name: "neg-nics", NICsPerNode: -1},
		{Name: "neg-oversub", Oversub: -2},
		{Name: "neg-cap", NICBps: -1},
	}
	for _, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Fatalf("topology %q accepted", topo.Name)
		}
	}
}

// ChargeLink transfers route through the contention ledger. Each
// charge is its own ledger transaction (unlike one collective's
// members, which share symmetrically), so the pair resolves
// first-committed-first-served: the first transfer keeps its solo time
// and the second shares the NIC while the first drains (half rate for
// one solo-time, then full rate for the remaining half) — the slower
// of the two finishes at 1.5x the solo β time, whichever order they
// commit in.
func TestChargeLinkContendsOnSharedNIC(t *testing.T) {
	run := func(topo *Topology) float64 {
		model := Perlmutter()
		model.Topology = topo
		cl := New(8, model)
		res, err := cl.Run(func(r *Rank) error {
			// Ranks 0 and 1 share node 0's one NIC.
			if r.ID < 2 {
				r.ChargeLink(InterNode, 1<<20)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	model := Perlmutter()
	solo := model.Alpha[InterNode] + float64(1<<20)*model.Beta[InterNode]
	approx(t, "ideal transfers", run(nil), solo)
	shared := run(OversubscribedTopology(0))
	want := model.Alpha[InterNode] + 1.5*float64(1<<20)*model.Beta[InterNode]
	approx(t, "shared-NIC transfers", shared, want)
}

// A panic inside the rendezvous transform hook (the contention
// solver's diagnostics would be one source) fires with the generation
// complete, where the deadlock detector's usual poison paths are
// disabled: the rendezvous must be poisoned explicitly so every other
// member panics with the diagnostic instead of waiting forever.
func TestExchangeTransformPanicPoisonsRendezvous(t *testing.T) {
	cl := New(2, Perlmutter())
	comm := cl.World()
	panics := make(chan any, 2)
	done := make(chan struct{})
	go func() {
		_, _ = cl.Run(func(r *Rank) error {
			defer func() { panics <- recover() }()
			comm.exchangeTransform(r, "boom", slot{clock: r.clock},
				func([]slot) []slot { panic("transform exploded") })
			return nil
		})
		close(done)
	}()
	for i := 0; i < 2; i++ {
		select {
		case p := <-panics:
			if p == nil {
				t.Fatal("a member left the poisoned rendezvous without a diagnostic")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a member hung after the transform panic")
		}
	}
	<-done
}
