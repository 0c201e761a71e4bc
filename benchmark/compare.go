package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// exactTolerance is the relative difference below which two values of
// an Exact metric on the same seed count as equal.
const exactTolerance = 1e-9

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// side is one results file's values of one workload × metric.
type side struct {
	values []float64         // one per untraced run (or the samples behind a single run's median)
	bySeed map[int64]float64 // the per-run values, keyed by seed
}

func collect(f *resultsFile, workload, metric string) side {
	s := side{bySeed: map[int64]float64{}}
	var samples []float64
	for _, r := range f.Runs {
		if r.Trace || r.Workload != workload {
			continue
		}
		mv, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		s.values = append(s.values, mv.Value)
		s.bySeed[r.Seed] = mv.Value
		samples = r.Samples[metric]
	}
	// A file holding a single run still has a spread where the run
	// reported a median of several samples.
	if len(s.values) == 1 && len(samples) > 1 {
		s.values = samples
	}
	return s
}

// worseBy is how much worse b is than a as a share of a (negative when
// b is better), in the metric's own direction.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	r := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		r = -r
	}
	return r
}

// verdict judges b against the baseline a. worse: b's median is worse
// than a's by more than the bound — or, for an Exact metric, any seed
// both files ran differs for the worse at all. unresolved: either side's
// interquartile spread is wider than the bound, so "no change" cannot be
// told from a change of the size the bound guards. ok otherwise.
func verdict(d metricDef, a, b side) string {
	if len(a.values) == 0 || len(b.values) == 0 {
		return "missing"
	}
	if d.Exact {
		for seed, av := range a.bySeed {
			if bv, ok := b.bySeed[seed]; ok && worseBy(d, av, bv) > exactTolerance {
				return "worse"
			}
		}
	}
	if worseBy(d, median(a.values), median(b.values)) > d.Bound {
		return "worse"
	}
	if spread(a.values) > d.Bound || spread(b.values) > d.Bound {
		return "unresolved"
	}
	return "ok"
}

// compareFiles prints one row per workload × end-to-end metric judging
// results file b against baseline a, every ratio with its base, and
// reports whether every row is ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	fa, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a (base): %s  %+v\nb:        %s  %+v\n", pathA, fa.Host, pathB, fb.Host)
	fmt.Fprintf(w, "%-18s %-22s %-9s %38s %38s %22s %6s  %s\n",
		"workload", "metric", "unit", "a: median [q1, q3] n", "b: median [q1, q3] n", "b/a (base a)", "bound", "verdict")
	allOK := true
	for _, s := range workloads {
		for _, d := range endToEnd {
			a, b := collect(fa, s.name, d.Name), collect(fb, s.name, d.Name)
			v := verdict(d, a, b)
			allOK = allOK && v == "ok"
			ratio := "-"
			if ma := median(a.values); ma != 0 && len(b.values) > 0 {
				ratio = fmt.Sprintf("%.9g (a=%.6g)", median(b.values)/ma, ma)
			}
			fmt.Fprintf(w, "%-18s %-22s %-9s %38s %38s %22s %5.0f%%  %s\n",
				s.name, d.Name, d.Unit, describe(a.values), describe(b.values), ratio, d.Bound*100, v)
		}
	}
	return allOK, nil
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] %d", median(xs), q1, q3, len(xs))
}
