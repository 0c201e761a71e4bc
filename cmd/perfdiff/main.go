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
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perfdiff BEFORE.json AFTER.json")
		os.Exit(2)
	}
	before, err := bench.ReadPerfBaseline(os.Args[1])
	if err != nil {
		fatal(err)
	}
	after, err := bench.ReadPerfBaseline(os.Args[2])
	if err != nil {
		fatal(err)
	}
	fmt.Printf("perf baseline diff: %s -> %s\n", os.Args[1], os.Args[2])
	if bench.PerfDiff(os.Stdout, before, after, bench.PerfWallTolerance) {
		fmt.Println("perfdiff: at least one workload breaches the gate thresholds")
		os.Exit(1)
	}
	fmt.Println("perfdiff: all shared workloads within gate thresholds")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfdiff:", err)
	os.Exit(2)
}
