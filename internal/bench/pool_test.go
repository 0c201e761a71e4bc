package bench

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
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
// full-table comparison runs on the DES backend, which is
// deterministic at any GOMAXPROCS (one event loop per cluster); the
// goroutine backend's contended cells are only reproducible at
// GOMAXPROCS=1 with or without the pool (see Scaling's run-phase
// comment), so the goroutine comparison below restricts itself to the
// contention-off rows that are scheduler-independent by construction.
func TestScalingPoolDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism is a long test")
	}
	run := func(workers int, be cluster.Backend) (string, []ScalingRow) {
		var buf bytes.Buffer
		model := cluster.Perlmutter()
		model.Backend = be
		rows, err := Scaling(&buf, Options{Profile: 0, GPUCounts: []int{8, 32}, Seed: 1,
			SweepWorkers: workers, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			rows[i].WallSec = 0
		}
		return stripWallColumn(buf.String()), rows
	}
	serialTable, serialRows := run(1, cluster.DESBackend)
	parTable, parRows := run(8, cluster.DESBackend)
	if serialTable != parTable {
		t.Errorf("parallel sweep table differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serialTable, parTable)
	}
	if !reflect.DeepEqual(serialRows, parRows) {
		t.Error("parallel sweep rows differ from serial")
	}

	ideal := func(rows []ScalingRow) []ScalingRow {
		var out []ScalingRow
		for _, r := range rows {
			if r.Topology == "ideal" {
				out = append(out, r)
			}
		}
		return out
	}
	_, gSerial := run(1, cluster.GoroutineBackend)
	_, gPar := run(8, cluster.GoroutineBackend)
	if !reflect.DeepEqual(ideal(gSerial), ideal(gPar)) {
		t.Error("goroutine-backend contention-off rows differ between serial and parallel sweeps")
	}
}
