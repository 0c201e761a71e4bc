package bench

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/pipeline"
)

// BenchmarkP512DES exists to profile the p=512 DES workload; it is not
// part of the perf gate.
func BenchmarkP512DES(b *testing.B) {
	d, err := datasets.ByName("products", datasets.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.Config{P: 512, C: 8, K: pipeline.KAll, Epochs: 1, Seed: 20240101}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP8192Weak times the scaling study's largest replicated run
// (tiny profile, flat, one epoch across 8192 ranks). The weak and
// strong p=8192 rows share it: past p = total batches a weak row is
// the raw makespan of this fixed-work run, not one batch per rank. Not
// part of the perf gate.
func BenchmarkP8192Weak(b *testing.B) {
	d, err := datasets.ByName("products", datasets.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.Config{P: 8192, C: 8, K: pipeline.KAll, Epochs: 1, Seed: 20240101}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
