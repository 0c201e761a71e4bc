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
	"os"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/datasets"
	"repro/internal/pipeline"
)

func main() {
	var (
		dataset = flag.String("dataset", "products", "products, protein, papers")
		profile = flag.String("profile", "small", cliutil.ProfileUsage)
		p       = flag.Int("p", 8, "simulated GPUs")
		maxB    = flag.Int("maxbatches", 0, "cap batches per epoch (0 = all)")
		seed    = flag.Int64("seed", 1, "seed")
	)
	platform := cliutil.RegisterPlatformFlags(flag.CommandLine, false, nil)
	flag.Parse()

	model, _, err := platform()
	if err != nil {
		fatal(err)
	}

	prof, err := cliutil.ParseProfile(*profile)
	if err != nil {
		fatal(err)
	}
	d, err := datasets.ByName(*dataset, prof)
	if err != nil {
		fatal(err)
	}
	c := bench.CFor(*p)
	k := bench.KFor(*p, d.NumBatches())
	fmt.Printf("dataset=%s p=%d c=%d | per-epoch simulated seconds\n", *dataset, *p, c)
	fmt.Printf("%-28s %10s %10s %10s %10s\n", "system", "sampling", "fetch", "prop", "total")

	row := func(name string, e pipeline.EpochStats) {
		fmt.Printf("%-28s %10.4f %10.4f %10.4f %10.4f\n",
			name, e.Sampling, e.FeatureFetch, e.Propagation, e.Total)
	}

	ours, err := pipeline.Run(d, pipeline.Config{
		P: *p, C: c, K: k, MaxBatches: *maxB, Seed: *seed, Model: model})
	if err != nil {
		fatal(err)
	}
	row("bulk pipeline (replicated)", ours.LastEpoch())

	over, err := pipeline.Run(d, pipeline.Config{
		P: *p, C: c, K: bench.QuarterEpochBulk(d.NumBatches(), *p), Overlap: true,
		MaxBatches: *maxB, Seed: *seed, Model: model})
	if err != nil {
		fatal(err)
	}
	row("bulk pipeline (overlapped)", over.LastEpoch())

	if *p >= 4 && (*p/2)%2 == 0 {
		part, err := pipeline.Run(d, pipeline.Config{
			P: *p, C: 2, K: k, MaxBatches: *maxB, Seed: *seed,
			Algorithm: pipeline.GraphPartitioned, SparsityAware: true, Model: model})
		if err != nil {
			fatal(err)
		}
		row("bulk pipeline (partitioned)", part.LastEpoch())
	}

	quiver, err := baseline.RunQuiver(d, baseline.QuiverConfig{
		P: *p, MaxBatches: *maxB, Seed: *seed, Model: model})
	if err != nil {
		fatal(err)
	}
	row("quiver strategy (GPU)", quiver.LastEpoch())

	uva, err := baseline.RunQuiver(d, baseline.QuiverConfig{
		P: *p, UVA: true, MaxBatches: *maxB, Seed: *seed, Model: model})
	if err != nil {
		fatal(err)
	}
	row("quiver strategy (UVA)", uva.LastEpoch())

	// 1D sampling baseline (sampling only — no training pipeline).
	res, err := bench.RunOneDSampling(d, *p, *maxB, *seed, model)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-28s %10.4f %10s %10s %10s\n", "1D-partitioned sampling",
		res.SimTime, "-", "-", "-")

	best := ours.LastEpoch().Total
	if over.LastEpoch().Total < best {
		best = over.LastEpoch().Total
	}
	fmt.Printf("\nbulk pipeline vs quiver: %.2fx faster\n", quiver.LastEpoch().Total/best)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}
