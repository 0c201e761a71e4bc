package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file is the contention-aware charging path selected by
// CostModel.Topology. Physical links are finite, shared resources:
// every transfer becomes a *flow* — (start time, byte demand, the
// physical links it occupies) — and concurrent flows on one link split
// its capacity by progressive filling: at any simulated instant a flow
// runs at min over its links of capacity/(flows active on the link),
// re-evaluated at every flow start and completion. A flow alone on its
// links runs at full tier bandwidth, so uncontended schedules cost
// exactly the α–β charge; two equal concurrent flows on one link each
// take twice the solo time.
//
// Atomicity and ordering. All member flows of one collective call are
// solved and committed in a single ledger transaction (inside the
// collective's rendezvous), so sharing *within* a collective is exact
// max-min fair and independent of host scheduling. *Across*
// transactions the ledger is first-committed-first-served: a flow
// shares with the flows already committed when it arrives, and an
// already-committed flow is never retroactively slowed (its owner's
// clock has advanced). When transfers from concurrently-running
// schedules (different streams, different communicators) overlap in
// simulated time, which one sees the other therefore follows the
// commit order. The scheduler fixes it by event key (transact runs
// only inside commit sections), so contended timings repeat exactly at
// any worker count. Contention-off runs (Topology == nil) never enter
// this file.

// flowReq is one transfer's demand handed to the ledger: it starts at
// start simulated seconds, must move bytes, and occupies every link in
// links while it runs.
type flowReq struct {
	start float64
	bytes float64
	links []int
}

// span is one committed flow's occupancy interval on a physical link.
type span struct {
	lo, hi float64
}

// PhysLinkStat is one physical link's traffic summary for a run under
// a contention topology (Result.PhysLinks).
type PhysLinkStat struct {
	// Name identifies the link ("nvlink:rank3", "nic:node1.0",
	// "pcie:rank0", "fabric-trunk").
	Name string
	// Capacity is the link's bandwidth in bytes/second.
	Capacity float64
	// Bytes is the total demand routed through the link (a flow
	// crossing both a NIC and the fabric trunk counts on both).
	Bytes float64
	// MaxConcurrency is the peak number of flows observed sharing the
	// link at one simulated instant; 1 means the link never contended.
	MaxConcurrency int
}

// contention is the per-cluster ledger of physical-link occupancy. It
// is created once per Cluster when the model carries a Topology and
// reset at the start of every Run (runs start fresh at clock zero).
type contention struct {
	nvBase, pcieBase, nicBase int // first link id of each family
	trunk                     int // trunk link id, -1 when unmodeled

	// links holds, per tier and rank, the physical links a flow the
	// rank injects on that tier occupies (read-only once built).
	links [3][][]int

	mu       sync.Mutex
	names    []string
	caps     []float64 // bytes/second per link id
	busy     [][]span  // per link: committed occupancy, sorted by hi
	bytes    []float64 // per link: total committed demand
	maxFlows []int     // per link: peak concurrent flows observed

	// Sweep scratch, reused across transactions (caller holds mu):
	// counts is indexed by link id and reset via the touched list,
	// events grows to the transaction's event horizon once instead of
	// reallocating per solve, and fin, rem and rate (per flow) to its
	// largest batch.
	counts         []int
	touched        []int
	events         []float64
	fin, rem, rate []float64

	// curSpans/peakSpans track the ledger's committed-span population
	// (inserts minus prunes) and its high-water mark — the "peak
	// ledger size" the perf-regression suite records, since ledger
	// growth is what turns the sweep superlinear at large p.
	curSpans, peakSpans int
}

// newContention enumerates the topology's physical links for an n-rank
// cluster under the given model.
func newContention(model CostModel, n int) *contention {
	topo := model.Topology
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	gpn := model.GPUsPerNode
	if gpn <= 0 {
		gpn = n
	}
	nodes := (n + gpn - 1) / gpn
	nicsPer := topo.NICsPerNode
	if nicsPer <= 0 || nicsPer > gpn {
		nicsPer = gpn // one injection pipe per GPU
	}
	// Each link's capacity is its tier's 1/β, which keeps a solo flow's
	// time identical to the α–β charge.
	cap := func(beta float64) float64 {
		if beta <= 0 {
			return math.Inf(1)
		}
		return 1 / beta
	}
	nvCap := cap(model.Beta[IntraNode])
	nicCap := cap(model.Beta[InterNode])
	pcieCap := cap(model.Beta[HostLink])

	ct := &contention{nvBase: 0, pcieBase: n, nicBase: 2 * n, trunk: -1}
	for r := 0; r < n; r++ {
		ct.names = append(ct.names, fmt.Sprintf("nvlink:rank%d", r))
		ct.caps = append(ct.caps, nvCap)
	}
	for r := 0; r < n; r++ {
		ct.names = append(ct.names, fmt.Sprintf("pcie:rank%d", r))
		ct.caps = append(ct.caps, pcieCap)
	}
	for node := 0; node < nodes; node++ {
		for q := 0; q < nicsPer; q++ {
			ct.names = append(ct.names, fmt.Sprintf("nic:node%d.%d", node, q))
			ct.caps = append(ct.caps, nicCap)
		}
	}
	if topo.Oversub > 1 && nodes > 1 {
		ct.trunk = len(ct.caps)
		ct.names = append(ct.names, "fabric-trunk")
		ct.caps = append(ct.caps, float64(nodes)*nicCap/topo.Oversub)
	}
	// Each rank's links on every tier, cut from one backing array.
	route := make([]int, 0, 4*n)
	for r := 0; r < n; r++ {
		at := len(route)
		nic := ct.nicBase + (r/gpn)*nicsPer + (r%gpn)%nicsPer
		route = append(route, ct.nvBase+r, ct.pcieBase+r, nic)
		if ct.trunk >= 0 {
			route = append(route, ct.trunk)
		}
		ct.links[IntraNode] = append(ct.links[IntraNode], route[at:at+1:at+1])
		ct.links[HostLink] = append(ct.links[HostLink], route[at+1:at+2:at+2])
		ct.links[InterNode] = append(ct.links[InterNode], route[at+2:len(route):len(route)])
	}
	ct.busy = make([][]span, len(ct.caps))
	ct.bytes = make([]float64, len(ct.caps))
	ct.maxFlows = make([]int, len(ct.caps))
	ct.counts = make([]int, len(ct.caps))
	return ct
}

// linksFor returns the physical links a flow injected by the given
// rank occupies on the given tier. The slice is shared: read-only.
func (ct *contention) linksFor(rank int, l Link) []int {
	return ct.links[l][rank]
}

// reset clears the ledger for a fresh Run (simulated clocks restart at
// zero, so committed occupancy from a previous run must not bleed in).
func (ct *contention) reset() {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for i := range ct.busy {
		ct.busy[i] = ct.busy[i][:0]
		ct.bytes[i] = 0
		ct.maxFlows[i] = 0
	}
	ct.curSpans = 0
	ct.peakSpans = 0
}

// peak returns the ledger's high-water committed span count.
func (ct *contention) peak() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.peakSpans
}

// stats snapshots the per-link traffic summary.
func (ct *contention) stats() []PhysLinkStat {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	out := make([]PhysLinkStat, len(ct.caps))
	for i := range ct.caps {
		out[i] = PhysLinkStat{Name: ct.names[i], Capacity: ct.caps[i],
			Bytes: ct.bytes[i], MaxConcurrency: ct.maxFlows[i]}
	}
	return out
}

// transact solves one batch of flows against the committed ledger,
// commits their occupancy, and overwrites each flow's start with its
// finish time. The batch shares fairly among itself (exact progressive
// filling) and with previously-committed overlapping flows (fixed
// occupancy).
func (ct *contention) transact(flows []flowReq) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	fin := ct.solveLocked(flows)
	for i := range flows {
		f := &flows[i]
		if f.bytes > 0 {
			for _, l := range f.links {
				ct.bytes[l] += f.bytes
				ct.insertSpan(l, span{f.start, fin[i]})
			}
		}
		f.start = fin[i]
	}
}

// soloLocked is the uncontended fast path: a single flow whose links
// carry no committed occupancy past its start runs at the minimum of
// its link capacities for its whole lifetime. The arithmetic matches
// the sweep exactly — one segment, dt = bytes / min(cap/1) — so the
// fast path is bit-identical to solveLocked on the same input. It
// returns false when any link still has overlapping committed spans
// (or the sweep's bookkeeping is otherwise needed). Caller holds
// ct.mu; on success the per-link peak-concurrency floor of 1 is
// recorded here.
func (ct *contention) soloLocked(f flowReq, fin []float64) bool {
	for _, l := range f.links {
		if len(ct.overlapping(l, f.start)) > 0 {
			return false
		}
	}
	r := math.Inf(1)
	for _, l := range f.links {
		if ct.caps[l] < r {
			r = ct.caps[l]
		}
		if ct.maxFlows[l] < 1 {
			ct.maxFlows[l] = 1
		}
	}
	if math.IsInf(r, 1) { // infinite-capacity link: free transfer
		fin[0] = f.start
		return true
	}
	fin[0] = f.start + f.bytes/r
	return true
}

// overlapping returns the committed spans on link l that end after t0,
// pruning the ones that ended earlier: they can never slow a future
// flow unless that flow starts before t0, i.e. unless concurrent
// streams invert simulated time across transactions — a bounded,
// accepted undercount (streams drift at most a bounded queue depth).
// The survivors move to the front, so the link keeps its capacity for
// the spans insertSpan adds.
func (ct *contention) overlapping(l int, t0 float64) []span {
	b := ct.busy[l]
	i := sort.Search(len(b), func(k int) bool { return b[k].hi > t0 })
	if i > 0 {
		b = b[:copy(b, b[i:])]
		ct.busy[l] = b
		ct.curSpans -= i
	}
	return b
}

// insertSpan keeps a link's committed spans sorted by end time.
func (ct *contention) insertSpan(l int, s span) {
	b := ct.busy[l]
	i := sort.Search(len(b), func(k int) bool { return b[k].hi > s.hi })
	b = append(b, span{})
	copy(b[i+1:], b[i:])
	b[i] = s
	ct.busy[l] = b
	ct.curSpans++
	if ct.curSpans > ct.peakSpans {
		ct.peakSpans = ct.curSpans
	}
}

// solveLocked runs the progressive-filling sweep: walk simulated time
// from the earliest flow start; between events (a flow starting, a
// flow completing, a committed span's boundary) every active flow
// progresses at min over its links of capacity/(active flows on the
// link); repeat until every batch flow has drained its bytes. Caller
// holds ct.mu; the returned finish times are scratch, valid until the
// next solve.
func (ct *contention) solveLocked(flows []flowReq) []float64 {
	if n := len(flows); cap(ct.fin) < n {
		ct.fin, ct.rem, ct.rate = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	fin, rem, rate := ct.fin[:len(flows)], ct.rem[:len(flows)], ct.rate[:len(flows)]
	active := 0
	t := math.Inf(1)
	for i, f := range flows {
		fin[i] = f.start
		rem[i] = f.bytes
		if f.bytes > 0 {
			active++
			if f.start < t {
				t = f.start
			}
		}
	}
	if active == 0 {
		return fin
	}
	if len(flows) == 1 && ct.soloLocked(flows[0], fin) {
		return fin
	}

	// Committed occupancy overlapping [t, ∞) on the links this batch
	// touches, plus the static event times of the sweep. The touched
	// list drives both the scratch reset and the per-segment counting
	// (link ids repeat across member flows, so it is deduplicated via
	// the counts scratch marking).
	ct.touched = ct.touched[:0]
	events := ct.events[:0]
	for _, f := range flows {
		if f.bytes <= 0 {
			continue
		}
		events = append(events, f.start)
		for _, l := range f.links {
			if ct.counts[l] == -1 {
				continue
			}
			ct.counts[l] = -1 // mark seen
			ct.touched = append(ct.touched, l)
			for _, s := range ct.overlapping(l, t) {
				events = append(events, s.lo, s.hi)
			}
		}
	}
	for _, l := range ct.touched {
		ct.counts[l] = 0
	}
	sort.Float64s(events)
	ct.events = events

	counts := ct.counts
	for active > 0 {
		// Flow count per link at time t (batch flows + committed spans).
		for _, l := range ct.touched {
			counts[l] = 0
		}
		for i, f := range flows {
			if rem[i] <= 0 || f.start > t {
				continue
			}
			for _, l := range f.links {
				counts[l]++
			}
		}
		for _, l := range ct.touched {
			for _, s := range ct.busy[l] {
				if s.lo <= t && t < s.hi {
					counts[l]++
				}
			}
		}
		for _, l := range ct.touched {
			if counts[l] > ct.maxFlows[l] {
				ct.maxFlows[l] = counts[l]
			}
		}

		// Next static event strictly after t.
		next := math.Inf(1)
		if k := sort.SearchFloat64s(events, t); k < len(events) {
			for ; k < len(events); k++ {
				if events[k] > t {
					next = events[k]
					break
				}
			}
		}

		// Per-flow rates and the earliest completion. rate[i] == 0 marks
		// a flow not running this segment (not started or already done),
		// so the advance below touches exactly the flows priced here —
		// recomputing the segment start from t after advancing would be
		// off by floating-point round-off and could skip a flow.
		dt := next - t
		running := false
		for i, f := range flows {
			rate[i] = 0
			if rem[i] <= 0 || f.start > t {
				continue
			}
			r := math.Inf(1)
			for _, l := range f.links {
				if rr := ct.caps[l] / float64(counts[l]); rr < r {
					r = rr
				}
			}
			if math.IsInf(r, 1) { // infinite-capacity link: free transfer
				rem[i] = 0
				fin[i] = t
				active--
				continue
			}
			rate[i] = r
			running = true
			if d := rem[i] / r; d < dt {
				dt = d
			}
		}
		if !running {
			if active > 0 {
				if math.IsInf(next, 1) {
					panic("cluster: contention solver stuck (no running flow and no pending event)")
				}
				t = next // idle gap before the next flow starts
			}
			continue
		}
		if math.IsInf(dt, 1) || dt < 0 {
			panic(fmt.Sprintf("cluster: contention solver bad step %v", dt))
		}

		t += dt
		for i, f := range flows {
			if rate[i] == 0 {
				continue
			}
			rem[i] -= rate[i] * dt
			if rem[i] <= f.bytes*1e-12 {
				rem[i] = 0
				fin[i] = t
				active--
			}
		}
	}
	return fin
}

// contendOp names the contended second round of every collective: a
// member reaches it only from a first round that every member shares,
// so the name need not repeat the collective's.
const contendOp = "contend"

// contendedFinish is chargeCollective's completion time under a
// contention topology: each member's flow is its schedule's β-portion
// (wireBytes through the member's own injection links, starting after
// the schedule's latency portion), and one ledger transaction inside a
// second rendezvous round solves all members together — sharing within
// the collective is exact and independent of host scheduling.
func (c *Comm) contendedFinish(r *Rank, entry float64, cost collCost) float64 {
	ct := c.cl.cont
	beta := c.cl.Model.Beta[c.link]
	wireSec := cost.wireBytes * beta
	alphaSec := cost.seconds + cost.seconds2 - wireSec
	if alphaSec < 0 {
		alphaSec = 0
	}
	req := flowReq{start: entry + alphaSec, bytes: cost.wireBytes, links: ct.linksFor(r.ID, c.link)}
	var t *table[flowReq]
	c.exchangeTransform(r, contendOp, req.start,
		func(idx int) { t = deposit(c.rv, idx, req, 0) },
		func() { ct.transact(t.vals) }, false)
	return t.vals[c.LocalIndex(r)].start
}
