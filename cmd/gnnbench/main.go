// Command gnnbench regenerates the paper's tables and figures on the
// simulated cluster. Each experiment id is one entry of
// bench.Experiments (see DESIGN.md's per-experiment index):
//
//	gnnbench -experiment fig4 -profile bench
//	gnnbench -experiment fig7ladies -profile small
//	gnnbench -experiment all -profile tiny -json results.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gnnbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gnnbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", bench.Usage())
		profile    = fs.String("profile", "small", cliutil.ProfileUsage)
		gpus       = fs.String("gpus", "", "comma-separated GPU counts (default per experiment; single-count experiments run the first)")
		maxBatches = fs.Int("maxbatches", 0, "cap batches per epoch and extrapolate (0 = all)")
		epochs     = fs.Int("epochs", 15, "training epochs for the accuracy experiment")
		seed       = fs.Int64("seed", 20240101, "experiment seed")
		jsonOut    = fs.String("json", "", "also write results as JSON to this file")
		perfOut    = fs.String("perfout", "", "perf experiment: write the measured rows as a new baseline file (BENCH_*.json)")
		perfBase   = fs.String("perfbaseline", "", "perf experiment: compare against this committed baseline, print the margins, and fail on >25% wall-time regression")
	)
	platform := cliutil.RegisterPlatformFlags(fs, false, map[string]string{
		"allreduce": " (the collectives, tprob and scaling experiments sweep their algorithm sets regardless)",
		"topology":  " (the contention and scaling experiments sweep their topology sets regardless)",
	})
	if help, err := cliutil.ParseFlags(fs, args, stderr); help || err != nil {
		return err
	}

	selected, err := bench.Select(*experiment)
	if err != nil {
		return err
	}
	// Sampling-only experiments never reach the training driver's
	// validation, and a negative cap would silently mean "all".
	if *maxBatches < 0 {
		return fmt.Errorf("bad -maxbatches %d: must be >= 0 (0 = all batches)", *maxBatches)
	}
	// The accuracy experiment would read a count below 1 as its default.
	if *epochs < 1 {
		return fmt.Errorf("bad -epochs %d: must be >= 1", *epochs)
	}
	// Experiment-scoped flags error out under any other experiment
	// instead of silently doing nothing.
	for _, c := range []struct{ name, value string }{
		{"perfout", *perfOut},
		{"perfbaseline", *perfBase},
	} {
		if err := cliutil.RequireExperiment(c.name, c.value, *experiment, "perf"); err != nil {
			return err
		}
	}
	// The gate's inputs are read before the suite spends its minutes.
	if *perfBase != "" {
		if _, _, err := bench.LoadPerfGate(*perfBase); err != nil {
			return err
		}
	}
	// An experiment whose table entry has no GPU axis pins its counts;
	// "all" applies -gpus to the entries that have one.
	if *gpus != "" && *experiment != "all" && selected[0].GPUs == nil {
		return fmt.Errorf("-gpus does not apply to -experiment %s: it has no GPU axis", *experiment)
	}

	opts := bench.Options{MaxBatches: *maxBatches, Seed: *seed, Epochs: *epochs}
	if opts.Profile, err = cliutil.ParseProfile(*profile); err != nil {
		return err
	}
	if opts.Model, _, err = platform(); err != nil {
		return err
	}
	if *gpus != "" {
		if opts.GPUCounts, err = cliutil.ParseGPUCounts(*gpus); err != nil {
			return err
		}
	}
	report := trace.NewReport(map[string]string{
		"profile":    *profile,
		"seed":       fmt.Sprint(*seed),
		"maxbatches": fmt.Sprint(*maxBatches),
		"allreduce":  opts.Model.Collectives.AllReduce.String(),
		"alltoall":   opts.Model.Collectives.AllToAll.String(),
		"topology":   opts.Model.Topology.String(),
	})

	for i, e := range selected {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		rows, err := e.Run(stdout, opts)
		if err != nil {
			return err
		}
		if rows != nil {
			report.Add(e.ID, rows)
		}
		// perf owns -perfout and -perfbaseline.
		if perfRows, ok := rows.([]bench.PerfRow); ok {
			if *perfOut != "" {
				if err := bench.WritePerfBaseline(*perfOut, perfRows); err != nil {
					return err
				}
				fmt.Fprintf(stderr, "wrote perf baseline %s\n", *perfOut)
			}
			if *perfBase != "" {
				if err := bench.PerfGate(stdout, *perfBase, perfRows); err != nil {
					return err
				}
			}
		}
	}

	if *jsonOut != "" {
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *jsonOut)
	}
	return nil
}
