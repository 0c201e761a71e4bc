package cluster

import (
	"fmt"
	"strings"
)

// Topology names the physical links of the simulated machine and
// switches the cost model onto the contention-aware charging path.
//
// The pure α–β model (Topology == nil, the default) charges every
// transfer the full tier bandwidth no matter how many concurrent
// transfers share the wire — correct on a machine where every endpoint
// owns its injection pipe, optimistic everywhere else. A Topology makes
// links finite, shared resources instead:
//
//   - every GPU owns one NVLink port (intra-node flows),
//   - every GPU owns one PCIe link to the host (HostLink flows),
//   - every node owns NICsPerNode network injection pipes, shared
//     round-robin by its GPUs (inter-node flows), and
//   - optionally one fabric trunk of capacity nodes·NIC/Oversub that
//     every inter-node flow also crosses (a blocking fabric core).
//
// Concurrent flows occupying the same physical link split its capacity
// by progressive filling (see internal/cluster/contention.go); a flow
// alone on its links runs at full tier bandwidth, so uncontended
// schedules cost what the α–β model says.
type Topology struct {
	// Name is the flag spelling, echoed by diagnostics and traces.
	Name string

	// NICsPerNode is the number of network injection pipes per node.
	// GPUs map onto them round-robin, so GPUsPerNode/NICsPerNode GPUs
	// share one pipe. 0 means one NIC per GPU (fully provisioned
	// injection, as on Perlmutter's 4-NIC nodes).
	NICsPerNode int

	// Oversub > 1 models a blocking fabric core: a single shared trunk
	// of capacity nodes·NIC/Oversub that every inter-node flow crosses
	// in addition to its NIC. Values <= 1 (or a single-node cluster)
	// model a non-blocking fabric with no shared core.
	Oversub float64
}

// String returns the flag spelling; the nil topology is "ideal".
func (t *Topology) String() string {
	if t == nil {
		return "ideal"
	}
	return t.Name
}

// Validate rejects nonsensical topologies. The nil topology (pure α–β)
// is always valid.
func (t *Topology) Validate() error {
	if t == nil {
		return nil
	}
	if t.NICsPerNode < 0 {
		return fmt.Errorf("cluster: topology %q: NICsPerNode must be >= 0, got %d", t.Name, t.NICsPerNode)
	}
	if t.Oversub < 0 {
		return fmt.Errorf("cluster: topology %q: Oversub must be >= 0, got %v", t.Name, t.Oversub)
	}
	return nil
}

// PerlmutterTopology returns the evaluation platform's link layout
// (Section 7.2): four Slingshot-11 NICs per node, one per A100, so
// inter-node injection is fully provisioned and contention arises only
// when concurrent streams of one GPU (a prefetch stream and the main
// timeline, say) share its pipes. Bulk-synchronous schedules therefore
// cost what the α–β model says; overlapped ones pay for what they
// share.
func PerlmutterTopology() *Topology {
	return &Topology{Name: "perlmutter", NICsPerNode: 4}
}

// OversubscribedTopology returns a commodity-cluster layout: one NIC
// per node shared by all its GPUs, behind a fabric core oversubscribed
// by the given factor (capacity nodes·NIC/factor). factor <= 1 keeps
// the core non-blocking.
func OversubscribedTopology(factor float64) *Topology {
	return &Topology{
		Name:        fmt.Sprintf("oversub%gx", factor),
		NICsPerNode: 1,
		Oversub:     factor,
	}
}

// TopologyFlagUsage is the -topology help text shared by the CLIs
// (cmd/trainer, cmd/gnnbench, cmd/compare).
const TopologyFlagUsage = "physical-link topology: ideal (pure α–β, no contention), perlmutter (per-GPU NIC injection) or oversub (one NIC per node, 4x-oversubscribed fabric core)"

// ParseTopology parses a flag spelling. "ideal" (or the empty string)
// is the nil topology — the pure α–β model with no contention.
func ParseTopology(s string) (*Topology, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "ideal", "none":
		return nil, nil
	case "perlmutter":
		return PerlmutterTopology(), nil
	case "oversub", "oversubscribed":
		return OversubscribedTopology(4), nil
	}
	return nil, fmt.Errorf("cluster: unknown topology %q (want ideal, perlmutter or oversub)", s)
}
