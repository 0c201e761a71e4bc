package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/datasets"
)

func TestRunCellsCoversEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		var counts [n]atomic.Int32
		errs := runCells(n, workers, func(cell int) error {
			counts[cell].Add(1)
			return nil
		})
		if len(errs) != n {
			t.Fatalf("workers=%d: %d error slots, want %d", workers, len(errs), n)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("workers=%d: cell %d ran %d times", workers, i, got)
			}
			if errs[i] != nil {
				t.Errorf("workers=%d: cell %d errored: %v", workers, i, errs[i])
			}
		}
	}
}

func TestRunCellsKeepsErrorsIndexed(t *testing.T) {
	want := errors.New("boom")
	errs := runCells(10, 4, func(cell int) error {
		if cell%3 == 0 {
			return fmt.Errorf("cell %d: %w", cell, want)
		}
		return nil
	})
	for i, err := range errs {
		if (i%3 == 0) != (err != nil) {
			t.Errorf("cell %d error = %v", i, err)
		}
		if err != nil && !errors.Is(err, want) {
			t.Errorf("cell %d lost the cause: %v", i, err)
		}
	}
}

// A panicking cell must not take down the sweep: its panic lands in
// its own error slot and every other cell still runs.
func TestRunCellsIsolatesPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 20
		var ran atomic.Int32
		errs := runCells(n, workers, func(cell int) error {
			if cell == 5 {
				panic("cell exploded")
			}
			ran.Add(1)
			return nil
		})
		if got := ran.Load(); got != n-1 {
			t.Fatalf("workers=%d: %d cells ran, want %d", workers, got, n-1)
		}
		if errs[5] == nil || !strings.Contains(errs[5].Error(), "cell 5") ||
			!strings.Contains(errs[5].Error(), "cell exploded") {
			t.Fatalf("workers=%d: panic not converted: %v", workers, errs[5])
		}
		for i, err := range errs {
			if i != 5 && err != nil {
				t.Errorf("workers=%d: cell %d errored: %v", workers, i, err)
			}
		}
	}
}

func TestRunCellsZeroCells(t *testing.T) {
	if errs := runCells(0, 8, func(int) error { panic("no cells") }); len(errs) != 0 {
		t.Fatalf("got %d error slots for zero cells", len(errs))
	}
}

// stripWallColumn blanks the wall-sec column (the only
// non-deterministic one) from a scaling table so two runs compare
// byte-for-byte.
func stripWallColumn(table string) string {
	lines := strings.Split(table, "\n")
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) == 11 && (f[0] == "weak" || f[0] == "strong") {
			f[9] = "WALL"
			lines[i] = strings.Join(f, " ")
		}
	}
	return strings.Join(lines, "\n")
}

// specExperiments are the experiments whose training runs go through
// runSpecs.
var specExperiments = []string{"fig4", "fig5", "fig6", "overlap", "contention", "scaling", "resilience"}

// TestPoolDeterminism pins the pool's central promise for every
// experiment that runs its specs on it: a parallel sweep prints the same
// table and returns the same rows as a serial one — scheduling may
// reorder execution, never results. The pool has one worker per
// GOMAXPROCS, so each experiment runs at 1 (serial) and 4. The
// scheduler commits in event-key order, so the whole table compares
// exactly, contended cells and fault recovery included. Concurrent runs
// share the process's free lists, which CI's race step checks here.
func TestPoolDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism is a long test")
	}
	o := Options{Profile: datasets.Tiny, GPUCounts: []int{8, 16}, MaxBatches: 2, Seed: 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, id := range specExperiments {
		e, err := Select(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(id, func(t *testing.T) {
			run := func(procs int) (string, any) {
				runtime.GOMAXPROCS(procs)
				var buf bytes.Buffer
				rows, err := e[0].Run(&buf, o)
				if err != nil {
					t.Fatal(err)
				}
				if scaling, ok := rows.([]ScalingRow); ok {
					for i := range scaling {
						scaling[i].WallSec = 0
					}
				}
				return stripWallColumn(buf.String()), rows
			}
			serialTable, serialRows := run(1)
			parTable, parRows := run(4)
			if serialTable != parTable {
				t.Errorf("parallel sweep table differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serialTable, parTable)
			}
			if !reflect.DeepEqual(serialRows, parRows) {
				t.Error("parallel sweep rows differ from serial")
			}
		})
	}
}

// TestScalingCellsShareRunsByConfig pins the study's run plan without
// simulating anything: two cells' specs encode alike, so runSpecs gives
// them one run, exactly when their configs are equal. At Tiny and Small every default p reaches
// the batch count, so each weak cell is its strong twin's run; at Scale
// (512 batches) the weak cells below p=512 keep runs of their own.
func TestScalingCellsShareRunsByConfig(t *testing.T) {
	for _, tc := range []struct {
		profile     datasets.Profile
		cells, runs int
	}{
		{datasets.Tiny, 180, 90},
		{datasets.Small, 180, 90},
		{datasets.Scale, 180, 138},
	} {
		d, err := datasets.ByName("products", tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		cells, specs := scalingCells(d, Options{Profile: tc.profile})
		var live []*scalingCell
		for _, cell := range cells {
			if cell.skip == "" {
				live = append(live, cell)
			}
		}
		if len(specs) != len(live) {
			t.Fatalf("%v: %d specs for %d runnable cells", tc.profile, len(specs), len(live))
		}
		keys, distinct := make([]string, len(specs)), map[string]bool{}
		for i, s := range specs {
			key, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			keys[i], distinct[string(key)] = string(key), true
			if !reflect.DeepEqual(s, live[i].spec) {
				t.Fatalf("%v: spec %d is not its cell's", tc.profile, i)
			}
		}
		if len(live) != tc.cells || len(distinct) != tc.runs {
			t.Errorf("%v: %d cells on %d runs, want %d on %d", tc.profile, len(live), len(distinct), tc.cells, tc.runs)
		}
		for i, a := range live {
			for j, b := range live[:i] {
				if shared, equal := keys[i] == keys[j], reflect.DeepEqual(a.spec, b.spec); shared != equal {
					t.Errorf("%v: cells %+v and %+v: shared run %v, equal configs %v", tc.profile, a.row, b.row, shared, equal)
				}
			}
		}
	}
}
