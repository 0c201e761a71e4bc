package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// ContentionRow is one cell of the shared-link contention experiment:
// one (algorithm, topology, schedule) training run with its per-epoch
// total, its slowdown against the ideal (contention-free) topology,
// the overlap gain surviving at that topology, and the hottest
// physical network links' utilization.
type ContentionRow struct {
	Dataset   string
	Algorithm string // replicated / partitioned
	Topology  string // ideal / perlmutter / oversubNx
	P, C      int
	Overlap   bool
	Total     float64 // per-epoch seconds
	Stall     float64 // exposed prefetch latency (overlapped rows)
	// Slowdown is Total over the ideal topology's Total at the same
	// (algorithm, overlap) point: how much the finite links cost.
	Slowdown float64
	// OverlapGain is the sequential Total over the overlapped Total at
	// the same (algorithm, topology) point, recorded on overlapped
	// rows: where prefetch streams and the gradient all-reduce fight
	// for the same NIC, the gain erodes below its ideal-topology value.
	OverlapGain float64
	// Links holds the network-side physical links (NIC pipes and the
	// fabric trunk) with nonzero traffic, ordered as enumerated;
	// utilization is bytes/(capacity·makespan) over the whole run.
	Links []trace.PhysLinkUtil
	// PeakNICUtil and PeakNICShare summarize Links: the highest
	// utilization and the highest concurrent-flow count observed on
	// any NIC pipe or the trunk (1 = that link never contended).
	PeakNICUtil  float64
	PeakNICShare int
}

// contentionTopologies is the sweep: the contention-free baseline, the
// paper's fully-provisioned testbed (contention only between
// concurrent streams of one GPU), and two oversubscription factors of
// a one-NIC-per-node commodity layout.
func contentionTopologies() []*cluster.Topology {
	return []*cluster.Topology{
		nil, // ideal: pure α–β
		cluster.PerlmutterTopology(),
		cluster.OversubscribedTopology(2),
		cluster.OversubscribedTopology(4),
	}
}

// Contention measures where the α–β schedule analyses stop holding
// once links are finite, shared resources: both distributed algorithms
// × sequential vs overlapped schedule × physical topology. The
// headline is the overlap-gain column — the 1.25x-style win of the
// software-pipelined schedule, measured per topology, eroding as
// prefetch streams and the gradient all-reduce share NIC injection
// bandwidth — next to per-physical-link utilization.
func Contention(w io.Writer, o Options) ([]ContentionRow, error) {
	p := o.gpus(multiNodeGPUs)[0]
	d, err := datasets.ByName("products", o.Profile)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "Shared-link contention: per-epoch seconds under finite physical links (p=%d)\n", p)
	fmt.Fprintf(w, "%-12s %-12s %-8s %10s %10s %9s %8s %9s %6s\n",
		"algorithm", "topology", "overlap", "total", "stall", "slowdown", "gain", "nic-util", "share")

	var rows []ContentionRow
	for _, algo := range distributedAlgorithms {
		// Same methodology as the overlap experiment.
		cfg := o.quarterEpochConfig(d, algo.alg, p)
		ideal := map[bool]float64{} // overlap -> total under nil topology
		for _, topo := range contentionTopologies() {
			seqTotal := 0.0
			for _, overlap := range []bool{false, true} {
				cfg.Model.Topology = topo
				cfg.Overlap = overlap
				res, err := pipeline.Run(d, cfg)
				if err != nil {
					return nil, err
				}
				e := res.LastEpoch()
				row := ContentionRow{
					Dataset: "products", Algorithm: algo.name,
					Topology: topo.String(), P: p, C: cfg.C, Overlap: overlap,
					Total: e.Total, Stall: e.Stall,
				}
				if topo == nil {
					ideal[overlap] = e.Total
					row.Slowdown = 1
				} else if base := ideal[overlap]; base > 0 {
					row.Slowdown = e.Total / base
				}
				if !overlap {
					seqTotal = e.Total
				} else if e.Total > 0 {
					row.OverlapGain = seqTotal / e.Total
				}
				row.Links, row.PeakNICUtil, row.PeakNICShare =
					networkLinkUtil(res.Cluster)
				rows = append(rows, row)
				fmt.Fprintf(w, "%-12s %-12s %-8v %10.5f %10.5f %8.2fx %7.2fx %8.1f%% %6d\n",
					algo.name, row.Topology, overlap, row.Total, row.Stall,
					row.Slowdown, row.OverlapGain, 100*row.PeakNICUtil, row.PeakNICShare)
			}
		}
	}
	return rows, nil
}

// networkLinkUtil extracts the network-side physical links (NIC pipes
// and the fabric trunk) with nonzero traffic from a run's cluster
// result, normalizing utilization by the run makespan.
func networkLinkUtil(res *cluster.Result) ([]trace.PhysLinkUtil, float64, int) {
	var links []trace.PhysLinkUtil
	peakUtil, peakShare := 0.0, 0
	for _, pl := range res.PhysLinks {
		network := strings.HasPrefix(pl.Name, "nic:") || pl.Name == "fabric-trunk"
		if pl.Bytes <= 0 || !network {
			continue
		}
		util := 0.0
		if res.SimTime > 0 && pl.Capacity > 0 {
			util = pl.Bytes / (pl.Capacity * res.SimTime)
		}
		links = append(links, trace.PhysLinkUtil{
			Name:           pl.Name,
			CapacityGBps:   pl.Capacity / 1e9,
			Bytes:          pl.Bytes,
			Utilization:    util,
			MaxConcurrency: pl.MaxConcurrency,
		})
		if util > peakUtil {
			peakUtil = util
		}
		if pl.MaxConcurrency > peakShare {
			peakShare = pl.MaxConcurrency
		}
	}
	return links, peakUtil, peakShare
}
