// Command gnnbench regenerates the paper's tables and figures on the
// simulated cluster. Each experiment id corresponds to one artifact of
// the evaluation section (see DESIGN.md's per-experiment index):
//
//	gnnbench -experiment fig4 -profile bench
//	gnnbench -experiment fig7ladies -profile small
//	gnnbench -experiment all -profile tiny -json results.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/trace"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "one of: table2, table3, fig4, fig5, fig6, fig7sage, fig7ladies, acc, tprob, collectives, contention, scaling, perf, amortization, cachesweep, sparsity, partition, explosion, variance, overlap, sensitivity, straggler, resilience, verify, all")
		profile    = flag.String("profile", "small", cliutil.ProfileUsage)
		gpus       = flag.String("gpus", "", "comma-separated GPU counts (default per experiment)")
		maxBatches = flag.Int("maxbatches", 0, "cap batches per epoch and extrapolate (0 = all)")
		epochs     = flag.Int("epochs", 15, "training epochs for the accuracy experiment")
		seed       = flag.Int64("seed", 20240101, "experiment seed")
		jsonOut    = flag.String("json", "", "also write results as JSON to this file")
		overlap    = flag.Bool("overlap", false, "run the replicated-pipeline training experiments (fig4, fig6) on the overlapped engine schedule; the overlap experiment always measures sequential vs overlapped for both algorithms")
		perfOut    = flag.String("perfout", "", "perf experiment: write the measured rows as a new baseline file (BENCH_*.json)")
		perfBase   = flag.String("perfbaseline", "", "perf experiment: compare against this committed baseline and fail on >25% wall-time regression")
		perfReps   = flag.String("perfreps", "default", "perf experiment: repetitions per workload (reported as wall min and median; baselines are captured at the default, 5)")
		sweepWorks = flag.String("sweepworkers", "default", "worker-pool size for sweep experiments (scaling): default = one per CPU, 1 = serial; tables are byte-identical at any setting")
	)
	platform := cliutil.RegisterPlatformFlags(flag.CommandLine, true, map[string]string{
		"allreduce":     " (the collectives and tprob experiments sweep their algorithm sets regardless)",
		"topology":      " (the contention experiment sweeps its topology set regardless)",
		"faults":        " (resilience experiment: overrides the auto fault at ~60% of the clean span)",
		"ckpt-interval": " (resilience experiment: restricts the interval sweep to this cadence)",
	})
	flag.Parse()

	prof, err := cliutil.ParseProfile(*profile)
	if err != nil {
		fatal(err)
	}
	pf, err := platform()
	if err != nil {
		fatal(err)
	}
	coll, topo, be := pf.Collectives, pf.Topology, pf.Backend
	workers, err := cliutil.ParseSweepWorkers(*sweepWorks)
	if err != nil {
		fatal(err)
	}
	reps, err := cliutil.ParsePerfReps(*perfReps)
	if err != nil {
		fatal(err)
	}
	// Experiment-scoped flags error out under any other experiment
	// instead of silently doing nothing.
	for _, c := range []struct{ name, value, want string }{
		{"perfout", *perfOut, "perf"},
		{"perfbaseline", *perfBase, "perf"},
		{"perfreps", *perfReps, "perf"},
		{"sweepworkers", *sweepWorks, "scaling"},
		{"faults", flag.Lookup("faults").Value.String(), "resilience"},
		{"ckpt-interval", flag.Lookup("ckpt-interval").Value.String(), "resilience"},
	} {
		if err := cliutil.RequireExperiment(c.name, c.value, *experiment, c.want); err != nil {
			fatal(err)
		}
	}
	opts := bench.Options{Profile: prof, MaxBatches: *maxBatches, Seed: *seed, Overlap: *overlap,
		Collectives: coll, Topology: topo, Backend: be,
		SweepWorkers: workers, PerfReps: reps}
	if *gpus != "" {
		counts, err := cliutil.ParseGPUCounts(*gpus)
		if err != nil {
			fatal(err)
		}
		opts.GPUCounts = counts
	}
	report := trace.NewReport(map[string]string{
		"profile":    *profile,
		"seed":       fmt.Sprint(*seed),
		"maxbatches": fmt.Sprint(*maxBatches),
		"overlap":    fmt.Sprint(*overlap),
		"allreduce":  coll.AllReduce.String(),
		"alltoall":   coll.AllToAll.String(),
		"topology":   topo.String(),
		"backend":    be.String(),
	})

	run := func(id string) error {
		switch id {
		case "table2":
			bench.Table2(os.Stdout)
		case "table3":
			rows, err := bench.Table3(os.Stdout, prof)
			report.Add(id, rows)
			return err
		case "fig4":
			rows, err := bench.Fig4(os.Stdout, opts)
			report.Add(id, rows)
			return err
		case "fig5":
			rows, err := bench.Fig5(os.Stdout, opts)
			report.Add(id, rows)
			return err
		case "fig6":
			rows, err := bench.Fig6(os.Stdout, opts)
			report.Add(id, rows)
			return err
		case "fig7sage":
			rows, err := bench.Fig7(os.Stdout, "sage", opts)
			report.Add(id, rows)
			return err
		case "fig7ladies":
			rows, err := bench.Fig7(os.Stdout, "ladies", opts)
			report.Add(id, rows)
			return err
		case "acc":
			res, err := bench.Accuracy(os.Stdout, nil, *epochs, *seed)
			report.Add(id, res)
			return err
		case "tprob":
			p := 16
			if len(opts.GPUCounts) > 0 {
				p = opts.GPUCounts[0]
			}
			rows, err := bench.Tprob(os.Stdout, "products", p, []int{1, 2, 4}, opts)
			report.Add(id, rows)
			return err
		case "collectives":
			rows, err := bench.CollectiveSweep(os.Stdout, opts)
			report.Add(id, rows)
			return err
		case "contention":
			rows, err := bench.Contention(os.Stdout, opts)
			report.Add(id, rows)
			return err
		case "scaling":
			rows, err := bench.Scaling(os.Stdout, opts)
			report.Add(id, rows)
			return err
		case "perf":
			rows, err := bench.Perf(os.Stdout, opts)
			report.Add(id, rows)
			if err != nil {
				return err
			}
			if *perfOut != "" {
				if err := bench.WritePerfBaseline(*perfOut, rows); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote perf baseline %s\n", *perfOut)
			}
			if *perfBase != "" {
				if err := bench.PerfGate(os.Stdout, *perfBase, rows); err != nil {
					return err
				}
			}
			return nil
		case "amortization":
			rows, err := bench.Amortization(os.Stdout, "products", []int{1, 4, 16, 0}, opts)
			report.Add(id, rows)
			return err
		case "cachesweep":
			rows, err := bench.CacheSweep(os.Stdout, "products", 8, []float64{0.05, 0.2}, opts)
			report.Add(id, rows)
			return err
		case "sparsity":
			row, err := bench.SparsityAblation(os.Stdout, "products", 16, 2, opts)
			report.Add(id, row)
			return err
		case "straggler":
			rows, err := bench.StragglerSensitivity(os.Stdout, "products", 8, []float64{1, 1.5, 2, 4}, opts)
			report.Add(id, rows)
			return err
		case "overlap":
			rows, err := bench.OverlapAnalysis(os.Stdout, opts)
			report.Add(id, rows)
			return err
		case "sensitivity":
			rows, err := bench.Sensitivity(os.Stdout, "products", []int{8, 32}, opts)
			report.Add(id, rows)
			return err
		case "variance":
			rows, err := bench.SamplerVariance(os.Stdout, "products", []int{2, 5, 10}, opts)
			report.Add(id, rows)
			return err
		case "verify":
			rows, err := bench.Verify(os.Stdout, opts)
			report.Add(id, rows)
			return err
		case "partition":
			rows, err := bench.PartitionAblation(os.Stdout, "products", []int{8, 16, 32}, opts)
			report.Add(id, rows)
			return err
		case "explosion":
			rows, err := bench.Explosion(os.Stdout, "products", opts)
			report.Add(id, rows)
			return err
		case "resilience":
			p := 16
			if len(opts.GPUCounts) > 0 {
				p = opts.GPUCounts[0]
			}
			var intervals []int
			if pf.CkptInterval > 0 {
				intervals = []int{0, pf.CkptInterval}
			}
			rows, err := bench.Resilience(os.Stdout, "products", p, intervals, pf.Faults, opts)
			report.Add(id, rows)
			return err
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	ids := []string{*experiment}
	if *experiment == "all" {
		// perf is deliberately not part of "all": it measures the
		// simulator itself (wall-clock), not the paper's figures, and
		// is driven separately by the CI regression gate.
		ids = []string{"table2", "table3", "fig4", "fig5", "fig6", "fig7sage", "fig7ladies",
			"acc", "tprob", "collectives", "contention", "scaling", "amortization", "cachesweep", "sparsity", "partition", "explosion", "variance", "overlap", "sensitivity", "straggler", "resilience", "verify"}
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Println()
		}
		if err := run(id); err != nil {
			fatal(err)
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gnnbench:", err)
	os.Exit(1)
}
