package bench

import (
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distsample"
	"repro/internal/pipeline"
)

// TprobRow compares measured 1.5D probability-generation communication
// time against the closed-form model of Section 5.2.1 under one
// collective algorithm. For the paper's FlatTree schedule the model is
//
//	T_prob = α(p/c² + log c) + β(kbd/c + c·kbd/p)
//
// and for Ring the all-reduce term swaps in the ring schedule's
// 2(c−1) latency and 2(c−1)/c bandwidth factors.
type TprobRow struct {
	Dataset   string
	Algorithm string
	P, C      int
	Measured  float64
	Predicted float64
	Ratio     float64
}

// tprobAlgorithms are the all-reduce schedules Tprob sweeps; FlatTree
// first so default consumers read the paper's rows.
var tprobAlgorithms = []cluster.CollectiveAlgorithm{cluster.FlatTree, cluster.Ring}

// Tprob sweeps replication factors at fixed p and reports measured vs
// modeled communication time for the first sampling layer, once per
// collective algorithm (the 1.5D schedule's row all-reduce follows the
// model's Collectives table).
func Tprob(w io.Writer, dataset string, p int, cs []int, o Options) ([]TprobRow, error) {
	d, err := datasets.ByName(dataset, o.Profile)
	if err != nil {
		return nil, err
	}
	k := len(pipeline.Batches(d, o.MaxBatches))
	b := float64(d.BatchSize)
	deg := d.Graph.AvgDegree()
	m := o.Model.OrPerlmutter()
	alpha := m.Alpha[cluster.InterNode] // inter-node tier dominates at scale
	beta := m.Beta[cluster.InterNode]

	fmt.Fprintf(w, "T_prob model check (Section 5.2.1), dataset=%s p=%d, first layer\n", dataset, p)
	fmt.Fprintf(w, "%-9s %3s %12s %12s %8s\n", "algo", "c", "measured(s)", "model(s)", "ratio")
	var rows []TprobRow
	for _, alg := range tprobAlgorithms {
		cell := o
		cell.Model.Collectives.AllReduce = alg
		for _, c := range cs {
			if c > 0 && (p%c != 0 || (p/c)%c != 0) {
				continue // the 1.5D algorithm needs c^2 | p
			}
			if alg != cluster.FlatTree && c < 2 {
				// A single-member row communicator degenerates every
				// schedule to FlatTree; rerunning would duplicate the
				// flat row under another label.
				continue
			}
			res, err := RunPartitionedSampling(d, core.SAGE{CDF: d.Graph.RowCDF()}, d.Fanouts[:1], p, c, true, cell)
			if err != nil {
				return nil, err
			}
			measured := res.PhaseComm(distsample.PhaseProbability)
			kb := float64(k) * b
			// α and β contributions of the per-stage gathers/scatters
			// (p/c² stages) plus the row all-reduce under the selected
			// schedule.
			arAlpha := math.Log2(float64(c) + 1)
			arBeta := float64(c) * kb * deg / float64(p)
			if alg == cluster.Ring && c >= 2 {
				arAlpha = 2 * float64(c-1)
				arBeta *= 2 * float64(c-1) / float64(c)
			}
			predicted := alpha*(float64(p)/float64(c*c)+arAlpha) +
				beta*(kb*deg/float64(c)+arBeta)*8
			row := TprobRow{Dataset: dataset, Algorithm: alg.String(), P: p, C: c,
				Measured: measured, Predicted: predicted}
			if predicted > 0 {
				row.Ratio = measured / predicted
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-9s %3d %12.5f %12.5f %8.2f\n", row.Algorithm, c, measured, predicted, row.Ratio)
		}
	}
	return rows, nil
}
