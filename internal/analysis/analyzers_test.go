package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer runs over a want-annotated fixture package under
// internal/analysis/testdata. The charging and parkwake fixtures load
// under the real cluster import path because those checks scope
// themselves by package; the rest use a neutral path.
func TestWalltime(t *testing.T) {
	analysistest.Run(t, analysis.Walltime, "testdata/walltime", "repro/fixture")
}

func TestGlobalRand(t *testing.T) {
	analysistest.Run(t, analysis.GlobalRand, "testdata/globalrand", "repro/fixture")
}

func TestCharging(t *testing.T) {
	analysistest.Run(t, analysis.Charging, "testdata/charging", "repro/internal/cluster")
}

func TestParkWake(t *testing.T) {
	analysistest.Run(t, analysis.ParkWake, "testdata/parkwake", "repro/internal/cluster")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, analysis.MapOrder, "testdata/maporder", "repro/fixture")
}

// Benchpool's scope table: each fixture loads under the package path
// whose rule it exercises; the kernels fixture is checked as both
// sparse and core, and an unlisted package is not checked at all.
func TestBenchpool(t *testing.T) {
	for _, c := range []struct{ dir, path string }{
		{"testdata/benchpool", "repro/internal/bench"},
		{"testdata/benchpool/dense", "repro/internal/dense"},
		{"testdata/benchpool/kernels", "repro/internal/sparse"},
		{"testdata/benchpool/kernels", "repro/internal/core"},
		{"testdata/benchpool/unscoped", "repro/fixture"},
	} {
		t.Run(c.path, func(t *testing.T) {
			analysistest.Run(t, analysis.Benchpool, c.dir, c.path)
		})
	}
}

func TestArenaEscape(t *testing.T) {
	analysistest.Run(t, analysis.ArenaEscape, "testdata/arenaescape", "repro/fixture")
	analysistest.Run(t, analysis.ArenaEscape, "testdata/arenapool", "repro/internal/freelist")
}

func TestFaultseam(t *testing.T) {
	analysistest.Run(t, analysis.Faultseam, "testdata/faultseam", "repro/internal/pipeline")
}

// TestAllowMarkers runs the marker-grammar fixture: malformed and
// unknown-check markers are findings under the "allow" pseudo-check
// and do not suppress, while a well-formed marker does.
func TestAllowMarkers(t *testing.T) {
	analysistest.Run(t, analysis.Walltime, "testdata/allow", "repro/fixture")
}
