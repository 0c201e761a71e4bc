// Command compare runs every distributed strategy side by side at one
// configuration and prints a verdict table: the paper's pipeline
// (sequential and overlapped), the Quiver baseline (GPU and UVA), and
// the 1D-partitioned sampling baseline.
//
//	compare -dataset products -profile small -p 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/datasets"
	"repro/internal/pipeline"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	var (
		dataset = fs.String("dataset", "products", "products, protein, papers")
		profile = fs.String("profile", "small", cliutil.ProfileUsage)
		p       = fs.Int("p", 8, "simulated GPUs")
		maxB    = fs.Int("maxbatches", 0, "cap batches per epoch (0 = all)")
		seed    = fs.Int64("seed", 1, "seed")
	)
	platform := cliutil.RegisterPlatformFlags(fs, false, nil)
	if help, err := cliutil.ParseFlags(fs, args, stderr); help || err != nil {
		return err
	}

	model, _, err := platform()
	if err != nil {
		return err
	}

	prof, err := cliutil.ParseProfile(*profile)
	if err != nil {
		return err
	}
	d, err := datasets.ByName(*dataset, prof)
	if err != nil {
		return err
	}
	c := bench.CFor(*p)
	k := bench.KFor(*p, d.NumBatches())
	fmt.Fprintf(stdout, "dataset=%s p=%d c=%d | per-epoch simulated seconds\n", *dataset, *p, c)
	fmt.Fprintf(stdout, "%-28s %10s %10s %10s %10s\n", "system", "sampling", "fetch", "prop", "total")

	row := func(name string, e pipeline.EpochStats) {
		fmt.Fprintf(stdout, "%-28s %10.4f %10.4f %10.4f %10.4f\n",
			name, e.Sampling, e.FeatureFetch, e.Propagation, e.Total)
	}

	ours, err := pipeline.Run(d, pipeline.Config{
		P: *p, C: c, K: k, MaxBatches: *maxB, Seed: *seed, Model: model})
	if err != nil {
		return err
	}
	row("bulk pipeline (replicated)", ours.LastEpoch())

	over, err := pipeline.Run(d, pipeline.Config{
		P: *p, C: c, K: bench.QuarterEpochBulk(d.NumBatches(), *p), Overlap: true,
		MaxBatches: *maxB, Seed: *seed, Model: model})
	if err != nil {
		return err
	}
	row("bulk pipeline (overlapped)", over.LastEpoch())

	if *p >= 4 && (*p/2)%2 == 0 {
		part, err := pipeline.Run(d, pipeline.Config{
			P: *p, C: 2, K: k, MaxBatches: *maxB, Seed: *seed,
			Algorithm: pipeline.GraphPartitioned, SparsityAware: true, Model: model})
		if err != nil {
			return err
		}
		row("bulk pipeline (partitioned)", part.LastEpoch())
	}

	quiver, err := baseline.RunQuiver(d, baseline.QuiverConfig{
		P: *p, MaxBatches: *maxB, Seed: *seed, Model: model})
	if err != nil {
		return err
	}
	row("quiver strategy (GPU)", quiver.LastEpoch())

	uva, err := baseline.RunQuiver(d, baseline.QuiverConfig{
		P: *p, UVA: true, MaxBatches: *maxB, Seed: *seed, Model: model})
	if err != nil {
		return err
	}
	row("quiver strategy (UVA)", uva.LastEpoch())

	// 1D sampling baseline (sampling only — no training pipeline).
	res, err := bench.RunOneDSampling(d, *p, *maxB, *seed, model)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-28s %10.4f %10s %10s %10s\n", "1D-partitioned sampling",
		res.SimTime, "-", "-", "-")

	best := ours.LastEpoch().Total
	if over.LastEpoch().Total < best {
		best = over.LastEpoch().Total
	}
	fmt.Fprintf(stdout, "\nbulk pipeline vs quiver: %.2fx faster\n", quiver.LastEpoch().Total/best)
	return nil
}
