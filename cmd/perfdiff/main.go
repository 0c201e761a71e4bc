// Command perfdiff compares two committed perf baselines
// (BENCH_*.json) workload by workload and prints the wall-time,
// allocation and simulated-seconds deltas with a pass/fail verdict per
// row against the regression gate's thresholds:
//
//	perfdiff BENCH_0006.json BENCH_0008.json
//
// The exit code is 1 when any workload breaches a gate threshold and 0
// otherwise, so the tool doubles as a gate on pre-captured files (the
// live perf gate prints the same table for the rows it just measured).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/cliutil"
)

// errBreach is the gate's verdict, as opposed to a usage or file error.
var errBreach = errors.New("at least one workload breaches the gate thresholds")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfdiff:", err)
		if errors.Is(err, errBreach) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfdiff", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: perfdiff BEFORE.json AFTER.json") }
	if help, err := cliutil.ParseFlags(fs, args, stderr); help || err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want 2 baseline files, got %d (usage: perfdiff BEFORE.json AFTER.json)", fs.NArg())
	}
	before, err := bench.ReadPerfBaseline(fs.Arg(0))
	if err != nil {
		return err
	}
	after, err := bench.ReadPerfBaseline(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perf baseline diff: %s -> %s\n", fs.Arg(0), fs.Arg(1))
	if bench.PerfDiff(stdout, before, after, bench.PerfWallTolerance) {
		return errBreach
	}
	fmt.Fprintln(stdout, "perfdiff: all shared workloads within gate thresholds")
	return nil
}
