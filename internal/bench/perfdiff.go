package bench

import (
	"fmt"
	"io"
	"strings"
)

// PerfDiff compares two perf baselines workload by workload, prints a
// delta table to w (relative changes are after vs before; positive is
// the regression direction), and reports whether any workload breached a
// threshold: wall time past before·wallTol plus the absolute slack
// (PerfWallTolerance is the committed ratio), allocation count or
// allocated bytes past perfAllocTolerance, any simulated-seconds drift,
// or a workload missing
// from after. This is the one comparison — PerfGate is this function
// plus an error — and the point of the table is seeing the margins even
// when nothing is breached.
func PerfDiff(w io.Writer, before, after *PerfBaseline, wallTol float64) (breached bool) {
	fmt.Fprintf(w, "%-40s %18s %14s %14s %12s %6s\n",
		"workload", "wall-sec", "alloc-bytes", "allocs", "sim-drift", "gate")
	byName := map[string]PerfRow{}
	for _, r := range after.Rows {
		byName[r.Name] = r
	}
	for _, b := range before.Rows {
		a, ok := byName[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s missing from the after baseline\n", b.Name)
			breached = true
			continue
		}
		delete(byName, b.Name)
		var breaches []string
		if b.WallSec > 0 && a.WallSec > b.WallSec*wallTol+perfWallSlack {
			breaches = append(breaches, "wall")
		}
		if b.AllocBytes > 0 && float64(a.AllocBytes) > float64(b.AllocBytes)*perfAllocTolerance {
			breaches = append(breaches, "alloc-bytes")
		}
		if b.Allocs > 0 && float64(a.Allocs) > float64(b.Allocs)*perfAllocTolerance {
			breaches = append(breaches, "allocs")
		}
		drift := "exact"
		if d := relDiff(a.SimSec, b.SimSec); d > 1e-9 {
			// A determinism breach, not a performance one: re-capture the
			// baseline only for a deliberate model change.
			breaches = append(breaches, "sim-sec")
			drift = fmt.Sprintf("%.3g", d)
		}
		verdict := "OK"
		if len(breaches) > 0 {
			breached = true
			verdict = "FAIL:" + strings.Join(breaches, ",")
		}
		fmt.Fprintf(w, "%-40s %8.3f>%8.3f%+6.1f%% %+13.1f%% %+13.1f%% %12s %s\n",
			b.Name, b.WallSec, a.WallSec, pctChange(a.WallSec, b.WallSec),
			pctChange(float64(a.AllocBytes), float64(b.AllocBytes)),
			pctChange(float64(a.Allocs), float64(b.Allocs)), drift, verdict)
	}
	// Workloads only the after baseline has (a grown matrix): listed
	// for completeness, never a failure.
	for _, a := range after.Rows {
		if _, ok := byName[a.Name]; ok {
			fmt.Fprintf(w, "%-40s %8s>%8.3f (new workload)\n", a.Name, "-", a.WallSec)
		}
	}
	return breached
}

func pctChange(after, before float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / before * 100
}
