package bench

import (
	"fmt"
	"io"

	"repro/internal/datasets"
	"repro/internal/pipeline"
)

// Table2 prints the system capability matrix of Table 2: which
// distributed minibatch GNN systems offer GPU sampling, multi-node
// training without full replication, and multiple sampler families.
func Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: distributed minibatch GNN systems")
	fmt.Fprintf(w, "%-12s %-12s %-18s %-16s\n", "system", "GPU sampling", "multi-node train*", "multiple samplers")
	type row struct {
		name             string
		gpu, multi, many bool
	}
	rows := []row{
		{"DistDGL", false, true, true},
		{"Quiver", true, true, false},
		{"GNNLab", true, false, false},
		{"WholeGraph", true, false, false},
		{"DSP", true, true, false},
		{"PGLBox", true, false, false},
		{"SALIENT++", false, true, false},
		{"NextDoor", true, false, true},
		{"P3", false, true, false},
		{"This work", true, true, true},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-12s %-18s %-16s\n", r.name, mark(r.gpu), mark(r.multi), mark(r.many))
	}
	fmt.Fprintln(w, "* excludes systems that replicate both graph and features on every node")
}

// Table3Row describes one dataset analog.
type Table3Row struct {
	Name     string
	Vertices int
	Edges    int
	Batches  int
	Features int
	AvgDeg   float64
}

// Table3 prints the dataset statistics table (Table 3) for the
// generated analogs at the given profile.
func Table3(w io.Writer, profile datasets.Profile) ([]Table3Row, error) {
	fmt.Fprintf(w, "Table 3: dataset analogs (profile %s)\n", profile)
	fmt.Fprintf(w, "%-10s %10s %12s %8s %9s %7s\n", "name", "vertices", "edges", "batches", "features", "avgdeg")
	var rows []Table3Row
	for _, name := range datasets.Names() {
		d, err := datasets.ByName(name, profile)
		if err != nil {
			return nil, err
		}
		r := Table3Row{
			Name:     name,
			Vertices: d.Graph.NumVertices(),
			Edges:    d.Graph.NumEdges(),
			Batches:  d.NumBatches(),
			Features: d.Features.Cols,
			AvgDeg:   d.Graph.AvgDegree(),
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "%-10s %10d %12d %8d %9d %7.1f\n",
			r.Name, r.Vertices, r.Edges, r.Batches, r.Features, r.AvgDeg)
	}
	return rows, nil
}

// AccuracyResult is the Section 8.1.3 analog: accuracy after training
// the full pipeline, compared against untrained parameters.
type AccuracyResult struct {
	TestAccuracy      float64
	UntrainedAccuracy float64
	FinalLoss         float64
	FirstLoss         float64
}

// Accuracy reproduces the model-quality check of Section 8.1.3: train
// the SAGE pipeline on the learnable SBM dataset and report test
// accuracy. The paper's claim under test is that the bulk sampling
// optimizations do not hurt accuracy; here the distributed bulk
// pipeline must reach the accuracy a serial training run reaches.
// Pass d == nil for the default (paper-analog) dataset; o.Epochs sets
// the training length (0 = 15).
func Accuracy(w io.Writer, d *datasets.Dataset, o Options) (*AccuracyResult, error) {
	epochs := o.Epochs
	if epochs <= 0 {
		epochs = 15
	}
	if d == nil {
		d = datasets.DefaultSBM()
	}
	cfg := pipeline.Config{P: 4, C: 2, Epochs: epochs, Seed: o.Seed, LR: 0.02, Model: o.Model}
	res, err := pipeline.Run(d, cfg)
	if err != nil {
		return nil, err
	}
	acc := pipeline.Evaluate(d, res.Params, cfg, d.Test)
	fresh := pipeline.Evaluate(d, pipeline.Run0Params(d, cfg), cfg, d.Test)
	out := &AccuracyResult{
		TestAccuracy:      acc,
		UntrainedAccuracy: fresh,
		FinalLoss:         res.LastEpoch().Loss,
		FirstLoss:         res.Epochs[0].Loss,
	}
	fmt.Fprintf(w, "Accuracy (Section 8.1.3 analog, SBM dataset, %d epochs, p=4, c=2)\n", epochs)
	fmt.Fprintf(w, "test accuracy:       %.3f\n", out.TestAccuracy)
	fmt.Fprintf(w, "untrained accuracy:  %.3f\n", out.UntrainedAccuracy)
	fmt.Fprintf(w, "loss first->last:    %.4f -> %.4f\n", out.FirstLoss, out.FinalLoss)
	return out, nil
}
