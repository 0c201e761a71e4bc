package bench

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/datasets"
	"repro/internal/pipeline"
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

// TestScalingPoolDeterminism pins the pool's central promise: a
// parallel sweep prints the same table and returns the same rows as a
// serial one — scheduling may reorder execution, never results. The
// pool has one worker per GOMAXPROCS, so the study runs at 1 (serial)
// and 4. The scheduler commits in event-key order, so the whole table
// compares exactly, contended cells included. Small at p ∈ {4, 8} has,
// for both algorithms, a weak cell with a run of its own (p=4 < 8
// batches) and weak cells that share their strong twin's run (p=8):
// every row must read what a run of its own config reads.
func TestScalingPoolDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism is a long test")
	}
	o := Options{Profile: datasets.Small, GPUCounts: []int{4, 8}, Seed: 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) (string, []ScalingRow) {
		runtime.GOMAXPROCS(procs)
		var buf bytes.Buffer
		rows, err := Scaling(&buf, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			rows[i].WallSec = 0
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

	d, err := datasets.ByName("products", o.Profile)
	if err != nil {
		t.Fatal(err)
	}
	cells, _ := scalingCells(d, o.withDefaults())
	live := runnableCells(cells)
	if len(live) != len(serialRows) {
		t.Fatalf("%d rows for %d runnable cells", len(serialRows), len(live))
	}
	errs := runCells(len(live), runtime.GOMAXPROCS(0), func(i int) error {
		cfg, row := live[i].cfg, serialRows[i]
		res, err := pipeline.Run(d, cfg)
		if err != nil {
			return err
		}
		want := res.LastEpoch().Total
		if row.Mode == "weak" {
			want = res.Cluster.SimTime
		}
		if row.P != cfg.P || row.C != cfg.C || row.Batches != cfg.MaxBatches ||
			row.EpochSec != want || row.LedgerPeak != res.Cluster.LedgerPeakSpans {
			return fmt.Errorf("row %+v; its own run reads epoch-sec %v, ledger %d", row, want, res.Cluster.LedgerPeakSpans)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// runnableCells returns the cells of a scaling plan that become rows,
// in row order.
func runnableCells(cells []*scalingCell) []*scalingCell {
	var live []*scalingCell
	for _, cell := range cells {
		if cell.skip == "" {
			live = append(live, cell)
		}
	}
	return live
}

// TestScalingCellsShareRunsByConfig pins the study's run plan without
// simulating anything: two cells read one run exactly when their
// configs are equal. At Tiny and Small every default p reaches the
// batch count, so each weak cell is its strong twin's run; at Scale
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
		cells, runs := scalingCells(d, Options{Profile: tc.profile}.withDefaults())
		live := runnableCells(cells)
		if len(live) != tc.cells || len(runs) != tc.runs {
			t.Errorf("%v: %d cells on %d runs, want %d on %d", tc.profile, len(live), len(runs), tc.cells, tc.runs)
		}
		for i, a := range live {
			if !reflect.DeepEqual(runs[a.run].cfg, a.cfg) {
				t.Errorf("%v: cell %+v reads a run of another config", tc.profile, a.row)
			}
			for _, b := range live[:i] {
				if shared, equal := a.run == b.run, reflect.DeepEqual(a.cfg, b.cfg); shared != equal {
					t.Errorf("%v: cells %+v and %+v: shared run %v, equal configs %v", tc.profile, a.row, b.row, shared, equal)
				}
			}
		}
	}
}
