package main

import (
	"syscall"
	"time"
)

// This file is the harness's only seam onto the host clocks. Everything
// the benchmark reports in host seconds flows through now and
// cpuSeconds; simulated seconds never do (they live on Rank clocks).

// now reads the host wall clock (monotonic; subtract with Time.Sub).
func now() time.Time {
	//gnnvet:allow walltime — the benchmark exists to measure host wall time; simulated time stays on Rank clocks
	return time.Now()
}

// cpuSeconds returns the process's consumed CPU time (user + system,
// all threads) from getrusage — GC workers and rank goroutines included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
