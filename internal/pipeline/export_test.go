package pipeline

import "repro/internal/core"

// SetSampleHook installs h as the sample hook (see sampleHook) for the
// runs that follow; nil removes it.
func SetSampleHook(h func(rank, round int, chunk [][]int, sizes []int, epochSeed int64, bulk *core.BulkSample)) {
	sampleHook = h
}
