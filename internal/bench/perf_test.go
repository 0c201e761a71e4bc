package bench

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func perfRowsForTest() []PerfRow {
	return []PerfRow{
		{Name: "a", WallSec: 1.0, SimSec: 0.5, Allocs: 1000, AllocBytes: 1 << 20},
		{Name: "b", WallSec: 0.05, SimSec: 0.25, Allocs: 500, AllocBytes: 1 << 18},
	}
}

func writeBaseline(t *testing.T, rows []PerfRow) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WritePerfBaseline(path, rows); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPerfGatePassesWithinTolerance(t *testing.T) {
	base := perfRowsForTest()
	path := writeBaseline(t, base)
	got := append([]PerfRow(nil), base...)
	got[0].WallSec = 1.2  // +20% < 25% tolerance
	got[1].WallSec = 0.12 // tiny workload: covered by the absolute slack
	got[0].Allocs = 1050  // +5% < 10%
	if err := PerfGate(io.Discard, path, got); err != nil {
		t.Fatalf("gate failed within tolerance: %v", err)
	}
}

func TestPerfGateFailsOnWallRegression(t *testing.T) {
	base := perfRowsForTest()
	path := writeBaseline(t, base)
	got := append([]PerfRow(nil), base...)
	got[0].WallSec = 1.4 // +40% and past the absolute slack
	var sb strings.Builder
	if err := PerfGate(&sb, path, got); err == nil {
		t.Fatal("gate passed a 40% wall regression")
	}
	if !strings.Contains(sb.String(), "wall") {
		t.Fatalf("failure output does not name the wall regression: %q", sb.String())
	}
}

func TestPerfGateFailsOnSimDrift(t *testing.T) {
	base := perfRowsForTest()
	path := writeBaseline(t, base)
	got := append([]PerfRow(nil), base...)
	got[1].SimSec = 0.2500001 // simulated time is deterministic; any drift fails
	if err := PerfGate(io.Discard, path, got); err == nil {
		t.Fatal("gate passed a simulated-seconds drift")
	}
}

func TestPerfGateFailsOnMissingWorkload(t *testing.T) {
	base := perfRowsForTest()
	path := writeBaseline(t, base)
	if err := PerfGate(io.Discard, path, base[:1]); err == nil {
		t.Fatal("gate passed with a workload missing")
	}
}

func TestPerfGateFailsOnAllocGrowth(t *testing.T) {
	base := perfRowsForTest()
	path := writeBaseline(t, base)
	for _, c := range []struct {
		name   string
		grow   func(r *PerfRow) // +20% > 10%
		breach string
	}{
		{"count", func(r *PerfRow) { r.Allocs += r.Allocs / 5 }, "FAIL:allocs"},
		{"bytes", func(r *PerfRow) { r.AllocBytes += r.AllocBytes / 5 }, "FAIL:alloc-bytes"},
	} {
		got := append([]PerfRow(nil), base...)
		c.grow(&got[0])
		var sb strings.Builder
		if err := PerfGate(&sb, path, got); err == nil {
			t.Fatalf("gate passed a 20%% growth of the allocation %s", c.name)
		}
		if !strings.Contains(sb.String(), c.breach) {
			t.Fatalf("failure output does not name the %s growth: %q", c.name, sb.String())
		}
	}
}

// The gate is PerfDiff plus an error: the margins table prints on a pass
// too, a FAIL row names the threshold it breached, and the wall
// allowance is the caller's (PERF_WALL_TOLERANCE on a slow runner).
func TestPerfGatePrintsMargins(t *testing.T) {
	base := perfRowsForTest()
	path := writeBaseline(t, base)
	got := append([]PerfRow(nil), base...)
	got[0].WallSec = 1.4
	got[0].Allocs = 1200
	var sb strings.Builder
	if err := PerfGate(&sb, path, got); err == nil {
		t.Fatal("gate passed")
	}
	if out := sb.String(); !strings.Contains(out, "FAIL:wall,allocs") || !strings.Contains(out, "+40.0%") ||
		!strings.Contains(out, "exact OK") {
		t.Fatalf("margins table missing the failing row's thresholds or the passing row:\n%s", out)
	}
	t.Setenv("PERF_WALL_TOLERANCE", "1.5")
	got[0].Allocs = 1000
	sb.Reset()
	if err := PerfGate(&sb, path, got); err != nil {
		t.Fatalf("gate failed a 40%% wall regression under a 1.5x allowance: %v\n%s", err, sb.String())
	}
}

func TestPerfBaselineRejectsWrongSchema(t *testing.T) {
	path := writeBaseline(t, perfRowsForTest())
	data := `{"schema":"other/v9","rows":[]}`
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPerfBaseline(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestScalingTinySmoke pins that the scaling experiment completes to
// p=512 at the tiny profile (the CI smoke) and yields a full,
// positive-timed row matrix.
func TestScalingTinySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke is a long test")
	}
	rows, err := Scaling(io.Discard, Options{Profile: 0, GPUCounts: []int{8, 512}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 modes x 3 collectives x 2 topologies x 5 algorithm-p cells:
	// replicated and partitioned-c=2 run both counts; the cmax series
	// runs only p=512 (c=16), since CMax(8)=2 duplicates the c=2 row.
	if want := 2 * 3 * 2 * 5; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	sawCmax := false
	for _, r := range rows {
		if r.Algorithm == "partitioned-cmax" {
			sawCmax = true
			if r.P != 512 || r.C != 16 {
				t.Fatalf("cmax row at wrong grid: %+v", r)
			}
		}
	}
	if !sawCmax {
		t.Fatal("no partitioned-cmax rows in the sweep")
	}
	for _, r := range rows {
		if r.EpochSec <= 0 {
			t.Fatalf("row %+v has non-positive epoch time", r)
		}
		if r.P == 512 && r.Topology == "oversub" && r.LedgerPeak == 0 {
			t.Fatalf("oversub p=512 row booked no ledger spans: %+v", r)
		}
	}
}

func writeFile(path, data string) error { return os.WriteFile(path, []byte(data), 0o644) }
