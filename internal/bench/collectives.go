package bench

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// CollectiveRow is one cell of the collectives experiment: a single
// (collective, algorithm, GPU count, message size) point with the
// measured simulated seconds per call, the analytic bound of the
// algorithm's schedule, and the per-link wire bytes one call injected
// across the whole communicator.
type CollectiveRow struct {
	Op        string
	Algorithm string
	P         int
	Bytes     int // per-member payload
	Measured  float64
	Predicted float64
	Ratio     float64
	Links     trace.LinkBytes
}

// collectiveCases enumerates the algorithm domain per operation.
var collectiveCases = []struct {
	op   string
	algs []cluster.CollectiveAlgorithm
}{
	{"broadcast", []cluster.CollectiveAlgorithm{cluster.FlatTree, cluster.Ring}},
	{"allgather", []cluster.CollectiveAlgorithm{cluster.FlatTree, cluster.Ring}},
	{"allreduce", []cluster.CollectiveAlgorithm{cluster.FlatTree, cluster.Ring, cluster.Hierarchical}},
	{"alltoallv", []cluster.CollectiveAlgorithm{cluster.FlatTree, cluster.Pairwise}},
}

// CollectiveSweep measures every collective algorithm against its
// analytic bound over GPU count x message size: the microbenchmark
// behind the pluggable-algorithm layer. It reports, per cell, the
// simulated seconds per call and the wire bytes injected per
// interconnect tier — making visible both the latency/bandwidth
// trade (ring beats the flat tree at large messages, pairwise beats
// the linear exchange at small ones) and the hierarchical all-reduce's
// defining property: inter-node traffic proportional to node count
// rather than rank count.
func CollectiveSweep(w io.Writer, o Options) ([]CollectiveRow, error) {
	sizes := []int{4 << 10, 4 << 20} // latency-bound and bandwidth-bound payloads
	const iters = 2

	fmt.Fprintf(w, "Collective algorithms: measured vs analytic (seconds per call, simulated)\n")
	fmt.Fprintf(w, "%-10s %-9s %5s %9s %12s %12s %7s %12s %12s\n",
		"op", "algo", "p", "bytes", "measured", "model", "ratio", "intra-bytes", "inter-bytes")
	var rows []CollectiveRow
	for _, p := range o.gpus(collectiveGPUs) {
		for _, size := range sizes {
			for _, cse := range collectiveCases {
				for _, alg := range cse.algs {
					row, err := runCollective(o.Model, cse.op, alg, p, size, iters)
					if err != nil {
						return nil, err
					}
					rows = append(rows, row)
					fmt.Fprintf(w, "%-10s %-9s %5d %9d %12.3e %12.3e %7.2f %12d %12d\n",
						row.Op, row.Algorithm, row.P, row.Bytes, row.Measured,
						row.Predicted, row.Ratio, row.Links.IntraNode, row.Links.InterNode)
				}
			}
		}
	}
	return rows, nil
}

// runCollective times iters calls of one collective under one
// algorithm on a fresh cluster and compares them to the analytic bound.
func runCollective(model cluster.CostModel, op string, alg cluster.CollectiveAlgorithm, p, size, iters int) (CollectiveRow, error) {
	model = model.OrPerlmutter() // the predictions price the machine the run charges
	switch op {
	case "alltoallv":
		model.Collectives = cluster.Collectives{AllToAll: alg}
	default:
		model.Collectives = cluster.Collectives{AllReduce: alg}
	}
	cl := cluster.New(p, model)
	world := cl.World()
	link := world.Tier()

	var payload []float64
	if op == "allreduce" {
		payload = make([]float64, size/8)
	}
	per := size / p // all-to-allv part addressed to each peer
	res, err := cl.Run(func(r *cluster.Rank) error {
		for i := 0; i < iters; i++ {
			switch op {
			case "broadcast":
				cluster.Broadcast(world, r, 0, 0, size)
			case "allgather":
				cluster.AllGather(world, r, 0, size)
			case "allreduce":
				cluster.AllReduceSum(world, r, payload)
			case "alltoallv":
				parts := make([]int, p)
				cluster.AllToAllv(world, r, parts, func(int) int { return per })
			}
		}
		return nil
	})
	if err != nil {
		return CollectiveRow{}, err
	}

	bytes := size
	var predicted float64
	switch op {
	case "broadcast":
		predicted = cluster.PredictBroadcast(model, alg, link, p, bytes)
	case "allgather":
		predicted = cluster.PredictAllGather(model, alg, link, p, p*bytes, bytes)
	case "allreduce":
		bytes = 8 * len(payload)
		if alg == cluster.Hierarchical {
			predicted = cluster.PredictHierAllReduce(model, world.Members(), bytes)
		} else {
			predicted = cluster.PredictAllReduce(model, alg, link, p, bytes) +
				float64(cluster.AllReduceMemBytes(alg, p, bytes))/model.MemBW[cluster.GPU]
		}
	case "alltoallv":
		vol := per * (p - 1)
		predicted = cluster.PredictAllToAllv(model, alg, link, p, vol)
	default:
		return CollectiveRow{}, fmt.Errorf("bench: unknown collective %q", op)
	}

	links := res.LinkTraffic()
	row := CollectiveRow{
		Op: op, Algorithm: alg.String(), P: p, Bytes: bytes,
		Measured:  res.SimTime / float64(iters),
		Predicted: predicted,
		Links: trace.LinkBytes{
			IntraNode: links[cluster.IntraNode] / int64(iters),
			InterNode: links[cluster.InterNode] / int64(iters),
			Host:      links[cluster.HostLink] / int64(iters),
		},
	}
	if predicted > 0 {
		row.Ratio = row.Measured / predicted
	}
	return row, nil
}
