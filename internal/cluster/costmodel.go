// Package cluster simulates a multi-GPU, multi-node cluster for the
// distributed sampling experiments. Each simulated GPU is a "rank", a
// task of one discrete-event scheduler (internal/cluster/sim); collectives really exchange data between ranks (so results
// are bit-for-bit what a real distributed run would compute) while an
// α–β communication model plus device throughput profiles accrue
// *simulated* time on per-rank clocks.
//
// The paper's performance claims are communication-schedule claims
// analyzed in the α–β model (Section 5.2.1), so replaying the same
// schedules under a calibrated cost model reproduces the shape of its
// results: who wins, by what factor, and where crossovers fall.
package cluster

import "fmt"

// Device identifies the processor a charge is billed to.
type Device int

const (
	// GPU bills charges at accelerator rates (default for ranks).
	GPU Device = iota
	// CPU bills charges at host processor rates, used by the
	// CPU-reference baselines and by UVA-style sampling.
	CPU
)

// Link identifies an interconnect tier.
type Link int

const (
	// IntraNode is the NVLink tier between GPUs on one node.
	IntraNode Link = iota
	// InterNode is the NIC tier between nodes.
	InterNode
	// HostLink is the PCIe tier between a GPU and host memory, paid by
	// UVA sampling and CPU-to-GPU sample transfers.
	HostLink
)

// String names the tier for traffic reports.
func (l Link) String() string {
	switch l {
	case IntraNode:
		return "intra-node"
	case InterNode:
		return "inter-node"
	case HostLink:
		return "host"
	}
	return fmt.Sprintf("link(%d)", int(l))
}

// CostModel holds the α–β link parameters and device throughputs that
// convert operation counts and message sizes into simulated seconds.
//
// All rates are "effective" (achieved, not peak) figures.
type CostModel struct {
	GPUsPerNode int

	// Backend is inert: every run executes on the discrete-event
	// scheduler. benchmark/ still sets it.
	//
	//gnnvet:allow deadexport — shim set by benchmark/ until ROADMAP item 1(b) deletes it
	Backend Backend

	// Collectives selects, per operation class, the schedule the
	// collectives charge under (FlatTree / Ring / Pairwise /
	// Hierarchical). The zero value keeps every collective on the
	// paper's FlatTree closed forms. Because the table rides the cost
	// model, a selection travels everywhere a model does — pipeline
	// configs, baselines, the bench harness — without extra plumbing.
	Collectives Collectives

	// Latency (seconds per message) and inverse bandwidth (seconds per
	// byte) per link tier.
	Alpha [3]float64
	Beta  [3]float64

	// Effective throughput for irregular sparse/sampling work
	// (operations per second) and dense floating point (flops per
	// second), and memory bandwidth (bytes per second), per device.
	SparseOps  [2]float64
	DenseFlops [2]float64
	MemBW      [2]float64

	// KernelLaunch is the fixed overhead of one GPU kernel launch in
	// seconds. It is what bulk sampling amortizes: sampling k batches
	// in one call pays it once instead of k times.
	KernelLaunch float64

	// Topology switches the model onto the contention-aware charging
	// path: physical links (per-GPU NVLink ports, per-node NIC
	// injection pipes, an optional oversubscribed fabric trunk) become
	// finite resources that concurrent transfers share by progressive
	// filling. nil keeps the pure α–β model — every transfer charged as
	// if it had its tier's wire to itself, bit-identical to the
	// pre-topology code (pinned by the golden tests).
	Topology *Topology

	// Faults is the deterministic fail-stop injection plan (see
	// FaultPlan): rank r halts when its simulated clock reaches t,
	// poisoning its pending collectives so survivors abort with a
	// recoverable error wrapping ErrRankFailed. Riding the cost model,
	// like Collectives and Topology, a plan travels everywhere a model
	// does. nil — the default — injects nothing and leaves every run
	// bit-identical to a model without the field.
	Faults *FaultPlan
}

// Perlmutter returns a cost model calibrated to the evaluation platform
// of Section 7.2: 4x NVIDIA A100 per node (NVLink 3.0 at 100 GB/s
// unidirectional, 80 GB HBM at 1.55 TB/s), AMD EPYC 7763 host, and
// 4x HPE Slingshot-11 NICs at 25 GB/s injection bandwidth.
func Perlmutter() CostModel {
	return CostModel{
		GPUsPerNode: 4,
		Alpha: [3]float64{
			IntraNode: 4e-6,  // NVLink message latency
			InterNode: 10e-6, // network latency incl. NCCL stack
			HostLink:  8e-6,  // PCIe transaction latency
		},
		Beta: [3]float64{
			IntraNode: 1.0 / 100e9, // 100 GB/s NVLink 3.0
			InterNode: 1.0 / 25e9,  // 25 GB/s Slingshot-11
			HostLink:  1.0 / 20e9,  // ~20 GB/s effective PCIe 4.0
		},
		SparseOps: [2]float64{
			GPU: 2.0e10, // irregular SpGEMM/sampling throughput on A100
			CPU: 6.0e8,  // single-socket host, latency-bound gathers
		},
		DenseFlops: [2]float64{
			GPU: 1.0e13, // achieved fp32 GEMM fraction of 19.5 TF peak
			CPU: 1.5e11,
		},
		MemBW: [2]float64{
			GPU: 1.2e12, // achieved fraction of 1.55 TB/s HBM
			CPU: 1.5e11,
		},
		KernelLaunch: 10e-6,
	}
}

// OrPerlmutter completes a model with no machine: when GPUsPerNode is
// 0, m takes Perlmutter's machine — node width, per-tier α and β,
// device rates and kernel launch — and keeps its own selections
// (Collectives, Topology, Faults, Backend). A model with a machine is
// returned as is. This is the one place "no machine means Perlmutter"
// is decided; New applies it, so a caller that only builds a cluster
// needs no default of its own.
func (m CostModel) OrPerlmutter() CostModel {
	if m.GPUsPerNode != 0 {
		return m
	}
	p := Perlmutter()
	m.GPUsPerNode, m.Alpha, m.Beta = p.GPUsPerNode, p.Alpha, p.Beta
	m.SparseOps, m.DenseFlops, m.MemBW, m.KernelLaunch = p.SparseOps, p.DenseFlops, p.MemBW, p.KernelLaunch
	return m
}

// Work is one compute charge on a device: irregular operations, dense
// multiply-add pairs, streamed memory bytes and kernel launches (what
// bulk sampling amortizes: k batches in one call launch once, not k times).
type Work struct {
	Device     Device
	SparseOps  int64
	DenseFlops int64
	MemBytes   int64
	Kernels    int
}

// terms returns the seconds of w's nonzero terms in secs[:n], in the
// fixed order SparseOps, DenseFlops, MemBytes, Kernels: Rank.Charge and
// Seconds price here, the one place device rates enter arithmetic.
func (m CostModel) terms(w Work) (secs [4]float64, n int) {
	if w.SparseOps != 0 {
		secs[n], n = float64(w.SparseOps)/m.SparseOps[w.Device], n+1
	}
	if w.DenseFlops != 0 {
		secs[n], n = float64(w.DenseFlops)/m.DenseFlops[w.Device], n+1
	}
	if w.MemBytes != 0 {
		secs[n], n = float64(w.MemBytes)/m.MemBW[w.Device], n+1
	}
	if w.Kernels != 0 {
		secs[n], n = float64(w.Kernels)*m.KernelLaunch, n+1
	}
	return secs, n
}

// Seconds is the time Rank.Charge advances by for w, summed in order.
func (m CostModel) Seconds(w Work) (sum float64) {
	secs, n := m.terms(w)
	for _, s := range secs[:n] {
		sum += s
	}
	return sum
}

// wireEntry returns the simulated time a transfer's payload hits the
// wire: the α handshake latency after the entry clock. One of the
// two helpers ChargeLink prices transfers through — the
// gnnvet charging check forbids inlined α–β arithmetic outside
// collectives.go / contention.go / costmodel.go, so the single
// charging path from PRs 3–4 cannot silently regrow cost sites.
func (m CostModel) wireEntry(entry float64, l Link) float64 {
	return entry + m.Alpha[l]
}

// wireTime returns the standalone α + bytes·β duration of a point
// transfer (what ChargeLink advances by on the contention-free path).
func (m CostModel) wireTime(l Link, bytes int64) float64 {
	return m.Alpha[l] + float64(bytes)*m.Beta[l]
}

// node returns the node index hosting the given global rank.
func (m CostModel) node(rank int) int {
	if m.GPUsPerNode <= 0 {
		return 0
	}
	return rank / m.GPUsPerNode
}

// worstLink returns the slowest tier among all pairs of the given
// ranks: collectives spanning nodes run at network speed.
func (m CostModel) worstLink(ranks []int) Link {
	if len(ranks) < 2 {
		return IntraNode
	}
	first := m.node(ranks[0])
	for _, r := range ranks[1:] {
		if m.node(r) != first {
			return InterNode
		}
	}
	return IntraNode
}
