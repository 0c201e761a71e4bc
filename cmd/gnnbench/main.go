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
		overlap    = fs.Bool("overlap", false, "run the replicated-pipeline training experiments (fig4, fig6) on the overlapped engine schedule; the overlap experiment always measures sequential vs overlapped for both algorithms")
		perfOut    = fs.String("perfout", "", "perf experiment: write the measured rows as a new baseline file (BENCH_*.json)")
		perfBase   = fs.String("perfbaseline", "", "perf experiment: compare against this committed baseline, print the margins, and fail on >25% wall-time regression")
		sweepWorks = fs.String("sweepworkers", "default", "worker-pool size for sweep experiments (scaling): default = one per CPU, 1 = serial; tables are byte-identical at any setting")
	)
	platform := cliutil.RegisterPlatformFlags(fs, true, map[string]string{
		"allreduce":     " (the collectives, tprob and scaling experiments sweep their algorithm sets regardless)",
		"topology":      " (the contention experiment sweeps its topology set regardless)",
		"faults":        " (resilience experiment: overrides the auto fault at ~60% of the clean span)",
		"ckpt-interval": " (resilience experiment: restricts the interval sweep to this cadence)",
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
	// Experiment-scoped flags error out under any other experiment
	// instead of silently doing nothing.
	for _, c := range []struct{ name, value, want string }{
		{"perfout", *perfOut, "perf"},
		{"perfbaseline", *perfBase, "perf"},
		{"sweepworkers", *sweepWorks, "scaling"},
		{"faults", fs.Lookup("faults").Value.String(), "resilience"},
		{"ckpt-interval", fs.Lookup("ckpt-interval").Value.String(), "resilience"},
	} {
		if err := cliutil.RequireExperiment(c.name, c.value, *experiment, c.want); err != nil {
			return err
		}
	}

	opts := bench.Options{MaxBatches: *maxBatches, Seed: *seed, Overlap: *overlap, Epochs: *epochs}
	if opts.Profile, err = cliutil.ParseProfile(*profile); err != nil {
		return err
	}
	if opts.Model, opts.CkptInterval, err = platform(); err != nil {
		return err
	}
	if opts.SweepWorkers, err = cliutil.ParseSweepWorkers(*sweepWorks); err != nil {
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
		"overlap":    fmt.Sprint(*overlap),
		"allreduce":  opts.Model.Collectives.AllReduce.String(),
		"alltoall":   opts.Model.Collectives.AllToAll.String(),
		"topology":   opts.Model.Topology.String(),
		"backend":    opts.Model.Backend.String(),
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
