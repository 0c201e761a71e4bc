package cluster

import (
	"fmt"
	"strings"
)

// CollectiveAlgorithm selects the schedule a collective charges under.
// The simulation separates *what* a collective computes (always the
// same, bit-for-bit, regardless of algorithm) from *how* the schedule
// is costed: the algorithm decides the α–β time, the injected wire
// traffic per interconnect tier, and the local-reduction memory
// traffic. FlatTree reproduces the paper's closed-form models (Section
// 5.2.1) and is the default.
type CollectiveAlgorithm int

const (
	// DefaultAlgorithm is the zero value: "unset". It behaves exactly
	// like FlatTree, but the autotuner treats it as "choose for me"
	// (mirroring the Config.K convention where 0 means unset and KAll
	// means an explicit request), while an explicit FlatTree is pinned.
	DefaultAlgorithm CollectiveAlgorithm = iota
	// FlatTree is the paper's α–β model: binomial trees for broadcast /
	// gather / barrier, recursive doubling for all-gather, the
	// idealized α·log₂p + β·n all-reduce, and a linear (p−1)-round
	// exchange for all-to-allv. Bit-identical to the pre-refactor
	// inline formulas.
	FlatTree
	// Ring is the bandwidth-optimal ring family: reduce-scatter +
	// all-gather all-reduce at 2·(p−1)/p·β·n, ring all-gather, and a
	// pipelined ring broadcast whose β term does not grow with log p —
	// the schedule that wins at large message sizes.
	Ring
	// Pairwise is the Bruck-style log-round all-to-allv exchange:
	// ⌈log₂p⌉ latency terms instead of p−1, at the price of moving each
	// byte ~⌈log₂p⌉/2 times. Wins for small (latency-bound) messages.
	Pairwise
	// Hierarchical is the two-level NCCL-style sum all-reduce: reduce
	// within each node at the NVLink tier, all-reduce across node
	// leaders at the network tier, broadcast back — keeping the slow
	// tier's traffic proportional to the node count rather than the
	// rank count. Applies to the sum all-reduce; other collectives
	// charge FlatTree under this selection.
	Hierarchical
)

// String returns the flag spelling of the algorithm.
func (a CollectiveAlgorithm) String() string {
	switch a {
	case DefaultAlgorithm:
		return "default"
	case FlatTree:
		return "flat"
	case Ring:
		return "ring"
	case Pairwise:
		return "pairwise"
	case Hierarchical:
		return "hier"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm parses a flag spelling ("default", "flat", "ring",
// "pairwise"/"bruck", "hier"/"hierarchical"). The empty string is
// DefaultAlgorithm.
func ParseAlgorithm(s string) (CollectiveAlgorithm, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return DefaultAlgorithm, nil
	case "flat", "flattree", "tree":
		return FlatTree, nil
	case "ring":
		return Ring, nil
	case "pairwise", "bruck":
		return Pairwise, nil
	case "hier", "hierarchical":
		return Hierarchical, nil
	}
	return 0, fmt.Errorf("cluster: unknown collective algorithm %q (want default, flat, ring, pairwise or hier)", s)
}

// Collectives is the per-operation algorithm table carried by the cost
// model. AllReduce governs the reduction family (sum and generic
// all-reduce, all-gather, broadcast); AllToAll governs the all-to-allv
// exchange. Gather, scatter and barrier always charge FlatTree. The
// zero value selects FlatTree behavior everywhere.
type Collectives struct {
	// AllReduce is DefaultAlgorithm, FlatTree, Ring or Hierarchical.
	AllReduce CollectiveAlgorithm
	// AllToAll is DefaultAlgorithm, FlatTree or Pairwise.
	AllToAll CollectiveAlgorithm
}

// Flag help shared by the CLIs (cmd/trainer, cmd/gnnbench) so the two
// binaries' flag sets stay in lockstep.
const (
	AllReduceFlagUsage = "all-reduce schedule: default, flat, ring or hier (governs all-reduce, all-gather and broadcast)"
	AllToAllFlagUsage  = "all-to-allv schedule: default, flat or pairwise"
)

// ParseCollectives builds a validated table from the -allreduce and
// -alltoall flag values shared by the CLIs.
func ParseCollectives(allreduce, alltoall string) (Collectives, error) {
	ar, err := ParseAlgorithm(allreduce)
	if err != nil {
		return Collectives{}, err
	}
	aa, err := ParseAlgorithm(alltoall)
	if err != nil {
		return Collectives{}, err
	}
	t := Collectives{AllReduce: ar, AllToAll: aa}
	return t, t.Validate()
}

// Validate rejects selections outside an operation's domain.
func (t Collectives) Validate() error {
	switch t.AllReduce {
	case DefaultAlgorithm, FlatTree, Ring, Hierarchical:
	default:
		return fmt.Errorf("cluster: all-reduce cannot use the %s algorithm (want default, flat, ring or hier)", t.AllReduce)
	}
	switch t.AllToAll {
	case DefaultAlgorithm, FlatTree, Pairwise:
	default:
		return fmt.Errorf("cluster: all-to-allv cannot use the %s algorithm (want default, flat or pairwise)", t.AllToAll)
	}
	return nil
}

// allReduceAlg resolves the algorithm the reduction family charges on
// this communicator; allToAllAlg does the same for all-to-allv. Every
// algorithm degenerates to FlatTree on fewer than two members.
func (c *Comm) allReduceAlg() CollectiveAlgorithm {
	if c.Size() < 2 {
		return FlatTree
	}
	switch a := c.cl.Model.Collectives.AllReduce; a {
	case Ring, Hierarchical:
		return a
	}
	return FlatTree
}

func (c *Comm) allToAllAlg() CollectiveAlgorithm {
	if c.Size() < 2 {
		return FlatTree
	}
	if c.cl.Model.Collectives.AllToAll == Pairwise {
		return Pairwise
	}
	return FlatTree
}

// collCost describes one collective call's modeled cost at one member,
// as produced by the selected algorithm's schedule: the simulated
// seconds, the bytes this member injects (booked under the op name and
// the communicator's link tier when count is set — roles that inject
// nothing, like a broadcast receiver, record no invocation), and the
// local-reduction memory traffic. chargeCollective is the single path
// that applies it.
type collCost struct {
	// seconds and seconds2 are the schedule's time addends, applied to
	// the entry clock in order ((entry + seconds) + seconds2): the
	// split keeps FlatTree bit-identical to the pre-refactor inline
	// expressions, which added the α and β terms to the entry time
	// left to right. Single-term schedules leave seconds2 zero.
	seconds  float64
	seconds2 float64
	count    bool
	opBytes  int64
	mem      int64
	// wireBytes is the bandwidth-bound portion of the schedule expressed
	// as effective wire bytes: seconds+seconds2 == (latency terms) +
	// wireBytes·β at the communicator's tier. The contention charging
	// path (CostModel.Topology != nil) turns it into a flow through the
	// member's physical links; the ideal path ignores it.
	wireBytes float64
}

// chargeCollective is the single charging path every collective, under
// every algorithm, routes through: it advances the member to the
// synchronized completion time (entry is the latest arrival), books
// the injected bytes under the op name and the communicator's link
// tier, and finally charges the local-reduction memory traffic on the
// member's own timeline.
//
// Conventions: all-reduce variants cost their β term on the maximum
// contribution size across members (every member forwards the largest
// message) and charge local-reduction memory traffic after the
// synchronized completion — AllReduceSum and AllReduceGeneric
// share both rules.
func (c *Comm) chargeCollective(r *Rank, op string, entry float64, cost collCost) {
	if cost.count {
		r.countOp(op, cost.opBytes)
		r.countLink(c.link, cost.opBytes)
	}
	if c.cl.cont != nil {
		// Contention topology: the schedule's bandwidth-bound portion
		// becomes a flow through the member's physical links, solved
		// fairly against the other members and the in-flight ledger
		// (contendedFinish). The guard is cluster-global, so every
		// member takes the same branch and the extra rendezvous round
		// stays symmetric.
		c.finish(r, c.contendedFinish(r, entry, cost))
	} else {
		c.finish(r, entry+cost.seconds+cost.seconds2)
	}
	if cost.mem > 0 {
		r.Charge(Work{MemBytes: cost.mem})
	}
}

// alphaBeta returns the communicator's link parameters.
func (c *Comm) alphaBeta() (alpha, beta float64) {
	return c.cl.Model.Alpha[c.link], c.cl.Model.Beta[c.link]
}

// --- Analytic predictors -------------------------------------------------
//
// The Predict* functions are the closed forms the charging path applies
// and the bounds the collectives experiment prints next to measured
// times. They exclude entry synchronization and (except
// PredictHierAllReduce) local memory traffic; AllReduceMemBytes gives
// the memory-traffic convention per algorithm.

// PredictBroadcast returns the analytic seconds of one broadcast of the
// given payload over p members at link l.
func PredictBroadcast(m CostModel, alg CollectiveAlgorithm, l Link, p, bytes int) float64 {
	if alg == Ring && p >= 2 {
		// Pipelined ring: every byte crosses p−1 links, but segments
		// overlap, so the β term stays a single payload transfer.
		return float64(p-1)*m.Alpha[l] + float64(bytes)*m.Beta[l]
	}
	return (m.Alpha[l] + float64(bytes)*m.Beta[l]) * log2Ceil(p)
}

// PredictAllGather returns the analytic seconds of one all-gather over
// p members at link l: totalBytes is the sum of all contributions,
// ownBytes the caller's share.
func PredictAllGather(m CostModel, alg CollectiveAlgorithm, l Link, p, totalBytes, ownBytes int) float64 {
	if alg == Ring && p >= 2 {
		return float64(p-1)*m.Alpha[l] + float64(totalBytes-ownBytes)*m.Beta[l]
	}
	return m.Alpha[l]*log2Ceil(p) + float64(totalBytes-ownBytes)*m.Beta[l]
}

// PredictAllReduce returns the analytic seconds of one all-reduce of
// the given payload over p members at link l for the FlatTree and Ring
// schedules (Hierarchical depends on the node layout; see
// PredictHierAllReduce).
func PredictAllReduce(m CostModel, alg CollectiveAlgorithm, l Link, p, bytes int) float64 {
	if alg == Ring && p >= 2 {
		return 2*float64(p-1)*m.Alpha[l] + 2*float64(p-1)/float64(p)*float64(bytes)*m.Beta[l]
	}
	return m.Alpha[l]*log2Ceil(p) + float64(bytes)*m.Beta[l]
}

// PredictAllToAllv returns the analytic seconds of one all-to-allv over
// p members at link l, where volBytes is max(bytes sent, bytes
// received) excluding the self part.
func PredictAllToAllv(m CostModel, alg CollectiveAlgorithm, l Link, p, volBytes int) float64 {
	if alg == Pairwise && p >= 2 {
		rounds := log2Ceil(p)
		return rounds*m.Alpha[l] + 0.5*rounds*float64(volBytes)*m.Beta[l]
	}
	return float64(p-1)*m.Alpha[l] + float64(volBytes)*m.Beta[l]
}

// AllReduceMemBytes is the local-reduction memory traffic convention of
// the shared charging path: the flat schedule folds all p contributions
// on every member (p·n bytes through HBM), while ring reduce-scatter
// touches each element a constant number of times (2·n).
func AllReduceMemBytes(alg CollectiveAlgorithm, p, bytes int) int64 {
	if alg == Ring && p >= 2 {
		return 2 * int64(bytes)
	}
	return int64(bytes) * int64(p)
}

// PredictHierAllReduce returns the analytic seconds of one hierarchical
// sum all-reduce over the given member ranks with uniform entry times,
// composing the flat stages the implementation runs: intra-node
// all-reduce (including its local-reduction memory time), leader
// all-reduce across nodes, and the intra-node broadcast back. Falls
// back to the flat single-node prediction when the members share one
// node.
func PredictHierAllReduce(m CostModel, members []int, bytes int) float64 {
	nodes := map[int]int{}
	for _, r := range members {
		nodes[m.node(r)]++
	}
	memSec := func(p int) float64 {
		return m.Seconds(Work{MemBytes: AllReduceMemBytes(FlatTree, p, bytes)})
	}
	if len(nodes) <= 1 {
		return PredictAllReduce(m, FlatTree, m.worstLink(members), len(members), bytes) + memSec(len(members))
	}
	maxNode := 0
	for _, sz := range nodes {
		if sz > maxNode {
			maxNode = sz
		}
	}
	leaders := len(nodes)
	return PredictAllReduce(m, FlatTree, IntraNode, maxNode, bytes) + memSec(maxNode) +
		PredictAllReduce(m, FlatTree, InterNode, leaders, bytes) + memSec(leaders) +
		PredictBroadcast(m, FlatTree, IntraNode, maxNode, bytes)
}

// --- Per-op cost constructors --------------------------------------------
//
// Each constructor derives the collCost one member hands the charging
// path. The FlatTree expressions are kept in exactly the pre-refactor
// shape so default runs stay bit-identical.

func broadcastCost(c *Comm, alg CollectiveAlgorithm, bytes int, root bool) collCost {
	cost := collCost{seconds: PredictBroadcast(c.cl.Model, alg, c.link, c.Size(), bytes)}
	if alg == Ring && c.Size() >= 2 {
		cost.wireBytes = float64(bytes)
	} else {
		cost.wireBytes = float64(bytes) * log2Ceil(c.Size())
	}
	if root {
		// A tree (or ring) broadcast moves (p−1) copies across links in
		// total; book the full volume at the root.
		cost.count = true
		cost.opBytes = int64(bytes) * int64(c.Size()-1)
	}
	return cost
}

func allGatherCost(c *Comm, alg CollectiveAlgorithm, total, own int) collCost {
	return collCost{
		seconds:   PredictAllGather(c.cl.Model, alg, c.link, c.Size(), total, own),
		count:     true,
		opBytes:   int64(own) * int64(c.Size()-1),
		wireBytes: float64(total - own),
	}
}

func gatherCost(c *Comm, total, own int, root bool) collCost {
	alpha, beta := c.alphaBeta()
	if root {
		return collCost{
			seconds:   alpha*log2Ceil(c.Size()) + float64(total)*beta,
			wireBytes: float64(total),
		}
	}
	return collCost{
		seconds:   alpha + float64(own)*beta,
		count:     true,
		opBytes:   int64(own),
		wireBytes: float64(own),
	}
}

func scatterCost(c *Comm, total, own int, root bool) collCost {
	alpha, beta := c.alphaBeta()
	if root {
		return collCost{
			seconds:   float64(c.Size()-1) * alpha,
			seconds2:  float64(total) * beta,
			count:     true,
			opBytes:   int64(total),
			wireBytes: float64(total),
		}
	}
	return collCost{seconds: alpha, seconds2: float64(own) * beta, wireBytes: float64(own)}
}

func allToAllvCost(c *Comm, alg CollectiveAlgorithm, sent, recvd int) collCost {
	vol := sent
	if recvd > vol {
		vol = recvd
	}
	cost := collCost{count: true, opBytes: int64(sent)}
	if alg == Pairwise {
		cost.seconds = PredictAllToAllv(c.cl.Model, alg, c.link, c.Size(), vol)
		// Bruck forwards each byte through ~⌈log₂p⌉/2 intermediate
		// hops, so the injected traffic grows by the same factor.
		cost.opBytes = int64(sent) * int64(log2Ceil(c.Size())) / 2
		cost.wireBytes = 0.5 * log2Ceil(c.Size()) * float64(vol)
		return cost
	}
	alpha, beta := c.alphaBeta()
	cost.seconds = float64(c.Size()-1) * alpha
	cost.seconds2 = float64(vol) * beta
	cost.wireBytes = float64(vol)
	return cost
}

// allReduceCost derives the all-reduce charge: the β term and the
// local-reduction memory traffic cost on the maximum contribution
// across members (every member forwards and folds the largest
// message), while the traffic counters book ownBytes — the volume this
// member actually injects, which differs under uneven generic
// contributions.
func allReduceCost(c *Comm, alg CollectiveAlgorithm, maxBytes, ownBytes int) collCost {
	p := c.Size()
	cost := collCost{
		seconds:   PredictAllReduce(c.cl.Model, alg, c.link, p, maxBytes),
		count:     true,
		opBytes:   int64(ownBytes),
		mem:       AllReduceMemBytes(alg, p, maxBytes),
		wireBytes: float64(maxBytes),
	}
	if alg == Ring {
		cost.opBytes = 2 * int64(ownBytes) * int64(p-1) / int64(p)
		cost.wireBytes = 2 * float64(p-1) / float64(p) * float64(maxBytes)
	}
	return cost
}
